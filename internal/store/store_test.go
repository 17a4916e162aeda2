package store

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleRecord(i int) Record {
	t0 := time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	return Record{
		Time: t0, EndTime: t0.Add(5 * time.Millisecond),
		Device: "C9", Name: "ARM", Args: []string{"10", "20", "30"},
		Response: "ok", Procedure: "Joystick", Run: "run-0", Mode: "REMOTE",
	}
}

func TestMemStoreAppendAssignsSeq(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < 5; i++ {
		if err := s.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	all := s.All()
	if len(all) != 5 {
		t.Fatalf("len = %d, want 5", len(all))
	}
	for i, r := range all {
		if r.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestMemStoreQueries(t *testing.T) {
	s := NewMemStore()
	recs := []Record{
		{Device: "C9", Name: "ARM", Procedure: "Joystick", Run: "run-0"},
		{Device: "C9", Name: "MVNG", Procedure: "Joystick", Run: "run-0"},
		{Device: "Tecan", Name: "Q", Procedure: "P1", Run: "run-13"},
		{Device: "UR3e", Name: "move_joints", Procedure: UnknownProcedure},
		{Device: "C9", Name: "ARM", Procedure: UnknownProcedure},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.ByProcedure("Joystick")); got != 2 {
		t.Errorf("ByProcedure(Joystick) = %d, want 2", got)
	}
	if got := len(s.ByRun("run-13")); got != 1 {
		t.Errorf("ByRun(run-13) = %d, want 1", got)
	}
	runs := s.Runs()
	if len(runs) != 2 || runs[0] != "run-0" || runs[1] != "run-13" {
		t.Errorf("Runs() = %v", runs)
	}
	byCmd := s.CountByCommand()
	if byCmd["C9.ARM"] != 2 {
		t.Errorf("CountByCommand[C9.ARM] = %d, want 2", byCmd["C9.ARM"])
	}
	byDev := s.CountByDevice()
	if byDev["C9"] != 3 || byDev["Tecan"] != 1 {
		t.Errorf("CountByDevice = %v", byDev)
	}
	seq := s.CommandSequence(func(r Record) bool { return r.Run == "run-0" })
	if len(seq) != 2 || seq[0] != "ARM" || seq[1] != "MVNG" {
		t.Errorf("CommandSequence = %v", seq)
	}
	all := s.CommandSequence(nil)
	if len(all) != 5 {
		t.Errorf("CommandSequence(nil) = %d entries, want 5", len(all))
	}
}

func TestMemStoreConcurrentAppend(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	const n = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				_ = s.Append(Record{Device: "IKA", Name: "IN_PV_4"})
			}
		}()
	}
	wg.Wait()
	if s.Len() != 4*n {
		t.Errorf("Len = %d, want %d", s.Len(), 4*n)
	}
	// Sequence numbers must be unique.
	seen := make(map[uint64]bool)
	for _, r := range s.All() {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	want := []Record{sampleRecord(0), sampleRecord(1)}
	want[1].Exception = "hardware fault"
	want[1].Args = nil
	for i, r := range want {
		r.Seq = uint64(i + 1)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].Device != "C9" || got[0].Name != "ARM" || len(got[0].Args) != 3 {
		t.Errorf("record 0 mismatch: %+v", got[0])
	}
	if got[1].Exception != "hardware fault" || got[1].Args != nil {
		t.Errorf("record 1 mismatch: %+v", got[1])
	}
	if !got[0].Time.Equal(want[0].Time) {
		t.Errorf("time mismatch: %v vs %v", got[0].Time, want[0].Time)
	}
}

func TestCSVReadRejectsRaggedRows(t *testing.T) {
	// csv.Reader enforces consistent field counts, so a ragged row must
	// surface as an error rather than silent truncation.
	in := "seq,time,end_time,device,name,args,response,exception,procedure,run,mode\n1,bad\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Error("want error for ragged csv row")
	}
}

func TestCSVReadEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty csv: got %v, %v", got, err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for i := 0; i < 3; i++ {
		r := sampleRecord(i)
		r.Seq = uint64(i + 10)
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	if got[0].Seq != 10 || got[2].Seq != 12 {
		t.Errorf("seqs = %d..%d, want 10..12", got[0].Seq, got[2].Seq)
	}
	if got[1].Latency() != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms", got[1].Latency())
	}
}

func TestJSONLReadSkipsBlankLinesRejectsGarbage(t *testing.T) {
	got, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank lines: got %v, %v", got, err)
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("want error for garbage jsonl")
	}
}

// TestMemStoreHooksAccumulate: every SetOnCommit adds a hook, and the
// hooks run in the order they were added, each seeing every later commit.
func TestMemStoreHooksAccumulate(t *testing.T) {
	s := NewMemStore()
	var calls []string
	s.SetOnCommit(func(recs []Record) { calls = append(calls, fmt.Sprintf("a%d", recs[0].Seq)) })
	if err := s.Append(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	s.SetOnCommit(func(recs []Record) { calls = append(calls, fmt.Sprintf("b%d+%d", recs[0].Seq, len(recs))) })
	if err := s.AppendBatch([]Record{sampleRecord(1), sampleRecord(2)}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a0", "a1", "b1+2"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("hook calls = %v, want %v", calls, want)
	}
}

func TestRecordHelpers(t *testing.T) {
	r := sampleRecord(0)
	if r.Key() != "C9.ARM" {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestCSVWriterAssignsSeqWhenZero(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	r := sampleRecord(0) // Seq == 0
	if err := w.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Seq != 0 || got[1].Seq != 1 {
		t.Errorf("seqs = %d, %d; want 0, 1", got[0].Seq, got[1].Seq)
	}
}
