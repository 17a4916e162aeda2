package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestDLQSpillAndDrain(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch1 := []Record{sampleRecord(0), sampleRecord(1)}
	batch2 := []Record{sampleRecord(2)}
	if err := q.Spill(batch1); err != nil {
		t.Fatal(err)
	}
	if err := q.Spill(batch2); err != nil {
		t.Fatal(err)
	}
	if err := q.Spill(nil); err != nil {
		t.Fatal("empty spill must be a no-op")
	}
	pending, err := q.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 {
		t.Fatalf("pending = %v, want 2 spill files", pending)
	}
	if st := q.Stats(); st.SpilledBatches != 2 || st.SpilledRecords != 3 {
		t.Errorf("stats = %+v", st)
	}

	// Drain re-delivers in spill order, batch boundaries intact.
	var drained [][]Record
	n, err := q.Drain(func(recs []Record) error {
		drained = append(drained, recs)
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("drain = %d, %v", n, err)
	}
	if len(drained) != 2 || len(drained[0]) != 2 || len(drained[1]) != 1 {
		t.Fatalf("drained shapes = %v", drained)
	}
	if drained[0][0].Name != "ARM" || !drained[1][0].Time.After(drained[0][1].Time) {
		t.Errorf("drain order broken: %+v", drained)
	}
	if pending, _ := q.Pending(); len(pending) != 0 {
		t.Errorf("files survived a successful drain: %v", pending)
	}
}

func TestDLQDrainKeepsFailedSpill(t *testing.T) {
	q, err := OpenDLQ(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := q.Spill([]Record{sampleRecord(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("primary still down")
	calls := 0
	n, err := q.Drain(func(recs []Record) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("drain = %d, %v", n, err)
	}
	// Spill 0 is gone (ingested), spills 1 and 2 remain for the next drain:
	// at-least-once, never lost.
	pending, _ := q.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending after failed drain = %v", pending)
	}
	n, err = q.Drain(func(recs []Record) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("recovery drain = %d, %v", n, err)
	}
}

func TestDLQNumberingSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Spill([]Record{sampleRecord(0)}); err != nil {
		t.Fatal(err)
	}
	if err := q.Spill([]Record{sampleRecord(1)}); err != nil {
		t.Fatal(err)
	}
	// A crash-leftover temp file must be ignored, not drained.
	if err := os.WriteFile(filepath.Join(dir, "dlq-000099.jsonl.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Spill([]Record{sampleRecord(2)}); err != nil {
		t.Fatal(err)
	}
	pending, _ := q2.Pending()
	if len(pending) != 3 {
		t.Fatalf("pending after reopen = %v", pending)
	}
	if base := filepath.Base(pending[2]); base != "dlq-000002.jsonl" {
		t.Errorf("reopened queue numbered its spill %s, want dlq-000002.jsonl", base)
	}
	n, err := q2.Drain(func(recs []Record) error { return nil })
	if err != nil || n != 3 {
		t.Fatalf("drain across restart = %d, %v", n, err)
	}
}

// refusingSink fails every append until healed.
type refusingSink struct {
	inner   *MemStore
	healthy bool
}

func (s *refusingSink) Append(r Record) error {
	if !s.healthy {
		return errors.New("disk full")
	}
	return s.inner.Append(r)
}

func TestFailoverSinkSpillsAndRecovers(t *testing.T) {
	q, err := OpenDLQ(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	primary := &refusingSink{inner: NewMemStore()}
	sink := NewFailoverSink(primary, q)

	// Primary down: every append still succeeds from the caller's view.
	if err := sink.Append(sampleRecord(0)); err != nil {
		t.Fatalf("failover append: %v", err)
	}
	for i := 1; i <= 2; i++ {
		if err := sink.Append(sampleRecord(i)); err != nil {
			t.Fatalf("failover append %d: %v", i, err)
		}
	}
	if primary.inner.Len() != 0 {
		t.Fatal("records reached a refusing primary")
	}
	st := sink.Stats()
	if st.PrimaryErrors != 3 || st.SpilledRecords != 3 {
		t.Errorf("stats = %+v", st)
	}

	// Primary heals: new appends land directly, the backlog drains in.
	primary.healthy = true
	if err := sink.Append(sampleRecord(3)); err != nil {
		t.Fatal(err)
	}
	n, err := q.Drain(func(recs []Record) error {
		for _, r := range recs {
			if err := primary.Append(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("drain = %d, %v", n, err)
	}
	if primary.inner.Len() != 4 {
		t.Fatalf("primary holds %d records, want 4", primary.inner.Len())
	}
	if st := sink.Stats(); st.PrimaryErrors != 3 {
		t.Errorf("healed appends counted as errors: %+v", st)
	}
}
