package stream_test

import (
	"errors"
	"testing"
	"time"

	dataset "rad/internal/rad"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
)

// TestChaosTailDuringCompactRetain is the lifecycle soak: the campaign is
// ingested through deliberately small flushes (maximum fragmentation) while
// THREE things run concurrently — the producer, a snapshot-then-follow tail
// attached mid-campaign, and a lifecycle goroutine hammering Compact and
// byte-budget Retain the whole time. The tail must deliver a gap-free,
// duplicate-free contiguous sequence range even as the segments under its
// snapshot are being rewritten, retired, and unlinked; a single use of an
// unlinked file would surface as a snapshot read error.
func TestChaosTailDuringCompactRetain(t *testing.T) {
	scale := 1.0
	if testing.Short() {
		scale = 0.05
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	recs := ds.Store.All()
	total := len(recs)
	if !testing.Short() && total != dataset.TotalTraceObjects {
		t.Fatalf("campaign has %d records, want %d", total, dataset.TotalTraceObjects)
	}

	db, err := tracedb.Open(t.TempDir(), tracedb.Options{
		SegmentBytes: 128 << 10, // many small segments: rich retire/compact churn
		Lifecycle:    tracedb.LifecycleOptions{RetainMaxBytes: 2 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)

	// Lifecycle chaos: compact + retain in a tight loop until told to stop.
	lcStop := make(chan struct{})
	lcDone := make(chan struct{})
	go func() {
		defer close(lcDone)
		for {
			select {
			case <-lcStop:
				return
			default:
			}
			if _, err := db.Compact(); err != nil && !errors.Is(err, tracedb.ErrClosed) {
				t.Errorf("chaos compact: %v", err)
				return
			}
			if _, err := db.Retain(); err != nil && !errors.Is(err, tracedb.ErrClosed) {
				t.Errorf("chaos retain: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Producer: tiny flushes, signal once a third of the campaign is in.
	const flush = 48
	attachAfter := total / 3
	attached := make(chan struct{})
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		signalled := false
		for off := 0; off < total; off += flush {
			end := off + flush
			if end > total {
				end = total
			}
			if err := db.AppendBatch(recs[off:end]); err != nil {
				t.Errorf("append at %d: %v", off, err)
				return
			}
			if !signalled && end >= attachAfter {
				signalled = true
				close(attached)
			}
		}
	}()

	<-attached
	tail := broker.Tail(db, stream.SubOptions{
		Name: "lifecycle-chaos", Buffer: 8192, Policy: stream.Block,
	})
	defer tail.Close()

	// By attach time retention may have trimmed an old-segment prefix; the
	// tail's contract is a contiguous, exactly-once range from the first
	// snapshot sequence to the end of the campaign.
	seen := make([]bool, total)
	deliver := func(r store.Record, source string) {
		if r.Seq >= uint64(total) {
			t.Fatalf("%s delivered out-of-range seq %d", source, r.Seq)
		}
		if seen[r.Seq] {
			t.Fatalf("%s delivered seq %d twice", source, r.Seq)
		}
		seen[r.Seq] = true
	}

	first := uint64(total)
	prev := int64(-1)
	snapshotted := 0
	_, err = snapshotRecords(tail, func(r *store.Record) error {
		if r.Seq < first {
			first = r.Seq
		}
		if prev >= 0 && r.Seq != uint64(prev)+1 {
			t.Fatalf("snapshot seq gap under lifecycle churn: %d -> %d", prev, r.Seq)
		}
		prev = int64(r.Seq)
		deliver(*r, "snapshot")
		snapshotted++
		return nil
	})
	if err != nil {
		t.Fatalf("snapshot read error (unlinked segment used?): %v", err)
	}

	// The ring holds only what the snapshot did not deliver: deliver fails
	// on a seq delivered twice.
	received := snapshotted
	want := total - int(first)
	for received < want {
		ev, ok := tail.Subscriber().Recv()
		if !ok {
			t.Fatalf("tail closed after %d/%d records", received, want)
		}
		if ev.Kind != stream.KindTrace {
			continue
		}
		deliver(ev.Record, "live")
		received++
	}
	<-prodDone
	close(lcStop)
	<-lcDone
	if t.Failed() {
		t.FailNow()
	}

	for seq := int(first); seq < total; seq++ {
		if !seen[seq] {
			t.Fatalf("seq %d never delivered", seq)
		}
	}
	if st := tail.Subscriber().Stats(); st.Dropped != 0 {
		t.Errorf("Block tail dropped %d events", st.Dropped)
	}

	// The store itself ends consistent: the survivors are a contiguous seq
	// suffix (whole-segment retention, no record-level tearing), every one
	// already delivered to the tail, and within the byte budget once the
	// final retain pass has run.
	if _, err := db.Retain(); err != nil {
		t.Fatal(err)
	}
	left, err := db.Collect(tracedb.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) == 0 {
		t.Fatal("retention emptied the store (active segment must survive)")
	}
	for i := 1; i < len(left); i++ {
		if left[i].Seq != left[i-1].Seq+1 {
			t.Fatalf("survivor seq gap: %d -> %d", left[i-1].Seq, left[i].Seq)
		}
	}
	if tailSeq := left[len(left)-1].Seq; tailSeq != uint64(total-1) {
		t.Fatalf("newest record lost: tail seq %d, want %d", tailSeq, total-1)
	}
	info := db.Lifecycle()
	if info.Compactions == 0 && info.SegmentsRetired == 0 {
		t.Error("soak ran no lifecycle work — chaos loop never engaged")
	}
	t.Logf("chaos soak: %d snapshot + %d live (first seq %d); lifecycle: %d compactions, %d segments retired, %d records dropped",
		snapshotted, received-snapshotted, first,
		info.Compactions, info.SegmentsRetired, info.RecordsDropped)
}
