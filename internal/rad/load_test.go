package rad

import (
	"bytes"
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

func TestFromRecordsRejectsBadRunLabels(t *testing.T) {
	recs := []store.Record{{Device: "C9", Name: "MVNG", Run: "weird-label", Procedure: "P4"}}
	if _, err := FromRecords(recs); err == nil {
		t.Error("bad run label accepted")
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
