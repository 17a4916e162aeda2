package rad

import (
	"bytes"
	"reflect"
	"testing"

	"rad/internal/store"
)

// TestFromRecordsRoundTrip exports a generated dataset to JSONL, reads it
// back, rebuilds the Dataset view, and checks the analyses' inputs survive:
// run index, anomaly ground truth, and sequences.
func TestFromRecordsRoundTrip(t *testing.T) {
	orig := dataset(t)

	var buf bytes.Buffer
	w := store.NewJSONLWriter(&buf)
	for _, r := range orig.Store.All() {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := store.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := FromRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Store.Len() != orig.Store.Len() {
		t.Errorf("loaded %d records, want %d", loaded.Store.Len(), orig.Store.Len())
	}
	if len(loaded.Runs) != len(orig.Runs) {
		t.Fatalf("loaded %d runs, want %d", len(loaded.Runs), len(orig.Runs))
	}
	for i, run := range loaded.Runs {
		want := orig.Runs[i]
		if run.ID != want.ID || run.Run != want.Run || run.Procedure != want.Procedure || run.Note != want.Note {
			t.Errorf("run %d: %+v, want id/run/proc/note of %+v", i, run, want)
		}
		if run.Anomalous != want.Anomalous {
			t.Errorf("run %d anomalous = %v, want %v", i, run.Anomalous, want.Anomalous)
		}
	}
	// The supervised sequences are identical, so Fig. 6 / Table I run
	// unchanged on the loaded view.
	origSeqs, _ := orig.SupervisedSequences()
	loadedSeqs, _ := loaded.SupervisedSequences()
	for i := range origSeqs {
		if len(origSeqs[i]) != len(loadedSeqs[i]) {
			t.Fatalf("run %d sequence length differs: %d vs %d",
				i, len(origSeqs[i]), len(loadedSeqs[i]))
		}
	}
}

// TestFromRecordsLabelsAfterNumberedRuns: a store collected live holds run
// labels radgen never writes (radtrace -run vfy). Such a label is a run all
// the same: it gets an ID after the highest numbered run, in sorted label
// order, and no note, while run-N keeps ID N and its note. Anomaly ground
// truth comes from the hardware-fault rule whatever the label.
func TestFromRecordsLabelsAfterNumberedRuns(t *testing.T) {
	recs := []store.Record{
		{Device: "C9", Name: "MVNG", Run: "vfy", Procedure: "P4"},
		{Device: "C9", Name: "MVNG", Run: "run-2", Procedure: "P4"},
		{Device: "C9", Name: "HOME", Run: "vfy", Procedure: "P4"},
		{Device: "Quantos", Name: "front_door", Run: "bench", Procedure: "P1",
			Exception: "hardware fault: door crashed"},
		{Device: "C9", Name: "MVNG", Run: "run-07", Procedure: "P4"},
		{Device: "C9", Name: "MVNG"},
	}
	ds, err := FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := []RunInfo{
		{ID: 2, Run: "run-2", Procedure: "P4", Commands: 1, Note: campaignRuns[2].note},
		{ID: 3, Run: "bench", Procedure: "P1", Commands: 1, Anomalous: true},
		{ID: 4, Run: "run-07", Procedure: "P4", Commands: 1},
		{ID: 5, Run: "vfy", Procedure: "P4", Commands: 2},
	}
	if !reflect.DeepEqual(ds.Runs, want) {
		t.Fatalf("runs:\n got  %+v\n want %+v", ds.Runs, want)
	}
	if campaignRuns[2].note == "" {
		t.Fatal("run 2 has no note to keep")
	}
	if seq := ds.RunSequence("vfy"); !reflect.DeepEqual(seq, []string{"MVNG", "HOME"}) {
		t.Errorf("vfy sequence %v", seq)
	}
}

// TestFromRecordsNoteOnlyForTheCampaignsRun: a run-N keeps the note of the
// campaign's run N only when it ran the same procedure and shares its
// anomaly flag; any other run-N, such as one recorded live, gets no note.
func TestFromRecordsNoteOnlyForTheCampaignsRun(t *testing.T) {
	fault := "hardware fault: door crashed"
	recs := []store.Record{
		{Device: "C9", Name: "MVNG", Run: "run-2", Procedure: "P4"},
		{Device: "Quantos", Name: "front_door", Run: "run-5", Procedure: "P1", Exception: fault},
		{Device: "Quantos", Name: "front_door", Run: "run-12", Procedure: "P1", Exception: fault},
		{Device: "Quantos", Name: "front_door", Run: "run-16", Procedure: "P1", Exception: fault},
		{Device: "C9", Name: "MVNG", Run: "run-17", Procedure: "P2"},
		{Device: "C9", Name: "MVNG", Run: "run-22", Procedure: "P4", Exception: fault},
	}
	ds, err := FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"run-2": campaignRuns[2].note, "run-5": "", "run-12": "", "run-16": campaignRuns[16].note, "run-17": "", "run-22": "",
	}
	for _, run := range ds.Runs {
		if run.Note != want[run.Run] {
			t.Errorf("%s (%s, anomalous %v): note %q, want %q", run.Run, run.Procedure, run.Anomalous, run.Note, want[run.Run])
		}
	}
	if campaignRuns[2].note == "" || campaignRuns[16].note == "" {
		t.Fatal("runs 2 and 16 have no note to keep")
	}
}

func TestFromRecordsEmptyIsValid(t *testing.T) {
	ds, err := FromRecords(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Store.Len() != 0 || len(ds.Runs) != 0 {
		t.Errorf("empty load: %d records, %d runs", ds.Store.Len(), len(ds.Runs))
	}
}
