package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
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
	if err := os.WriteFile(filepath.Join(dir, "dlq-000099.blk.tmp"), []byte("torn"), 0o644); err != nil {
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
	if base := filepath.Base(pending[2]); base != "dlq-000002.blk" {
		t.Errorf("reopened queue numbered its spill %s, want dlq-000002.blk", base)
	}
	n, err := q2.Drain(func(recs []Record) error { return nil })
	if err != nil || n != 3 {
		t.Fatalf("drain across restart = %d, %v", n, err)
	}
}

// TestDLQSpillIsOneBlockFrame: a spill file holds exactly the frame
// AppendFrame makes of its batch, the frame tracedb's segments use, and
// leaves no temp file behind.
func TestDLQSpillIsOneBlockFrame(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenDLQ(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := []Record{sampleRecord(0), sampleRecord(1), sampleRecord(2)}
	if err := q.Spill(batch); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "dlq-000000.blk" {
		t.Fatalf("dir holds %v, want the one spill dlq-000000.blk", entries)
	}
	got, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendFrame(nil, batch); !bytes.Equal(got, want) {
		t.Fatalf("spill bytes differ from AppendFrame of the batch:\n got %x\nwant %x", got, want)
	}
}

// TestDLQDrainStopsAtDamagedSpill: a spill that fails its frame check —
// flipped payload byte, torn tail, trailing bytes — stops Drain with the
// file's name before anything is ingested, and every spill stays pending.
func TestDLQDrainStopsAtDamagedSpill(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"flipped":  func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"torn":     func(b []byte) []byte { return b[:len(b)-3] },
		"trailing": func(b []byte) []byte { return append(b, 0) },
		"empty":    func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			q, err := OpenDLQ(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := q.Spill([]Record{sampleRecord(i)}); err != nil {
					t.Fatal(err)
				}
			}
			pending, _ := q.Pending()
			b, err := os.ReadFile(pending[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pending[0], damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			calls := 0
			n, err := q.Drain(func([]Record) error { calls++; return nil })
			if err == nil || !strings.Contains(err.Error(), pending[0]) {
				t.Fatalf("drain = %d, %v; want an error naming %s", n, err, pending[0])
			}
			if n != 0 || calls != 0 {
				t.Errorf("drain ingested %d records in %d calls past a damaged spill", n, calls)
			}
			if after, _ := q.Pending(); len(after) != 2 {
				t.Errorf("pending after a failed drain = %v, want both spills", after)
			}
		})
	}
}

// TestDLQRefusesLegacyJSONLSpill: a JSONL spill of an older build cannot be
// read by this one, so opening its directory fails with the file's name
// instead of skipping a dead letter.
func TestDLQRefusesLegacyJSONLSpill(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "dlq-000004.jsonl")
	if err := os.WriteFile(legacy, []byte(`{"seq":0,"device":"C9","name":"ARM"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDLQ(dir); err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("OpenDLQ over a legacy spill: %v, want an error naming %s", err, legacy)
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
