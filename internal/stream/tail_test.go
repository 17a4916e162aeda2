package stream_test

import (
	"fmt"
	"sync"
	"testing"

	dataset "rad/internal/rad"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
)

// TestTailHandoffGapFreeFullCampaign is the acceptance test for
// snapshot-then-follow: the full 128,785-record campaign is appended to a
// tracedb in batches while a subscriber attaches mid-campaign. The tail must
// deliver every sequence number exactly once — snapshot plus live feed, no
// gaps, no duplicates — using the store's own segment seq numbering.
func TestTailHandoffGapFreeFullCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign generation in -short mode")
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 11, Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	recs := ds.Store.All()
	total := len(recs)
	if total != dataset.TotalTraceObjects {
		t.Fatalf("campaign has %d records, want %d", total, dataset.TotalTraceObjects)
	}

	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)

	const chunk = 1024
	attachAfter := total / 3 // mid-campaign

	// Producer: append the campaign in blocks; signal once a third is in.
	attached := make(chan struct{})
	var produced sync.WaitGroup
	produced.Add(1)
	go func() {
		defer produced.Done()
		signalled := false
		for off := 0; off < total; off += chunk {
			end := off + chunk
			if end > total {
				end = total
			}
			if err := db.AppendBatch(recs[off:end]); err != nil {
				t.Errorf("append batch at %d: %v", off, err)
				return
			}
			if !signalled && end >= attachAfter {
				signalled = true
				close(attached)
				// Give the consumer a moment to attach mid-stream; the
				// correctness argument does not depend on this timing, it
				// just makes the test exercise a genuinely concurrent
				// handoff rather than an after-the-fact replay.
			}
		}
	}()

	<-attached
	tail := broker.Tail(db, stream.SubOptions{
		Name: "campaign-tail", Buffer: 4096, Policy: stream.Block,
	})
	defer tail.Close()

	seen := make([]bool, total)
	record := func(r store.Record, source string) {
		if r.Seq >= uint64(total) {
			t.Fatalf("%s delivered out-of-range seq %d", source, r.Seq)
		}
		if seen[r.Seq] {
			t.Fatalf("%s delivered seq %d twice", source, r.Seq)
		}
		seen[r.Seq] = true
	}

	var snapshotted int
	blocks, err := snapshotRecords(tail, func(r *store.Record) error {
		record(*r, "snapshot")
		snapshotted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks == 0 {
		t.Error("the unfiltered snapshot forwarded no block whole")
	}
	if snapshotted < attachAfter/2 {
		t.Errorf("snapshot replayed only %d records before a mid-campaign attach", snapshotted)
	}

	// The ring holds only what the snapshot did not deliver: record fails
	// on a seq delivered twice.
	received := snapshotted
	for received < total {
		ev, ok := tail.Subscriber().Recv()
		if !ok {
			t.Fatalf("tail closed after %d/%d records", received, total)
		}
		if ev.Kind != stream.KindTrace {
			continue
		}
		record(ev.Record, "live")
		received++
	}
	produced.Wait()

	for seq, ok := range seen {
		if !ok {
			t.Fatalf("seq %d never delivered", seq)
		}
	}
	if st := tail.Subscriber().Stats(); st.Dropped != 0 {
		t.Errorf("Block tail dropped %d events", st.Dropped)
	}
	t.Logf("campaign handoff: %d snapshot + %d live", snapshotted, received-snapshotted)
}

// TestTailAfterQuiescentStore covers the degenerate handoff: everything is
// already committed, nothing arrives live.
func TestTailAfterQuiescentStore(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)

	for i := 0; i < 50; i++ {
		if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
			t.Fatal(err)
		}
	}

	tail := broker.Tail(db, stream.SubOptions{Buffer: 64, Policy: stream.Block})
	defer tail.Close()
	var want uint64
	_, err = snapshotRecords(tail, func(r *store.Record) error {
		if r.Seq != want {
			t.Fatalf("snapshot seq %d, want %d", r.Seq, want)
		}
		want++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != 50 {
		t.Fatalf("snapshot replayed %d records, want 50", want)
	}
	// The 50 committed records were published before the subscriber existed,
	// so its ring holds none of them. A fresh live record comes straight
	// through.
	if n := tail.Subscriber().Stats().Buffered; n != 0 {
		t.Fatalf("ring holds %d events after the snapshot of a quiescent store, want 0", n)
	}
	if err := db.Append(store.Record{Device: "UR3e", Name: "movej"}); err != nil {
		t.Fatal(err)
	}
	ev, ok := tail.Subscriber().Recv()
	if !ok || ev.Record.Seq != 50 {
		t.Fatalf("live event after snapshot: (%d, %v), want seq 50", ev.Record.Seq, ok)
	}
}

// TestTailHandoffExactUnderAppends attaches a tail 200 times while a writer
// appends without pause, so records commit around every attach. Each
// tail's snapshot and ring must split the records between them: the first
// live event follows the snapshot's last record exactly, never repeating
// one the snapshot delivered, never skipping one.
func TestTailHandoffExactUnderAppends(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
				t.Errorf("append: %v", err)
				broker.Close() // end the tail waiting for a live event
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()

	const attaches = 200
	var dups, gaps int
	for i := 0; i < attaches; i++ {
		// Replay the last few hundred records, not the whole growing store.
		from := db.NextSeq()
		from -= min(from, 256)
		tail := broker.Tail(db, stream.SubOptions{
			Policy: stream.Block, Filter: tracedb.Query{MinSeq: from},
		})
		next := from
		_, err := snapshotRecords(tail, func(r *store.Record) error {
			if r.Seq != next {
				return fmt.Errorf("snapshot seq %d, want %d", r.Seq, next)
			}
			next++
			return nil
		})
		if err != nil {
			tail.Close()
			t.Fatal(err)
		}
		ev, ok := tail.Subscriber().Recv()
		tail.Close()
		switch {
		case !ok:
			t.Fatalf("attach %d: tail closed before a live event", i)
		case ev.Record.Seq < next:
			dups++
		case ev.Record.Seq > next:
			gaps++
		}
	}
	if dups+gaps > 0 {
		t.Fatalf("of %d attaches under appends, %d rings began with a record the snapshot delivered and %d skipped one",
			attaches, dups, gaps)
	}
}

// TestTailFilterConsistency checks that the snapshot and the live side apply
// the same filter, so a filtered tail is gap-free over the matching subset.
func TestTailFilterConsistency(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)

	devs := []string{"C9", "UR3e", "IKA"}
	for i := 0; i < 30; i++ {
		if err := db.Append(store.Record{Device: devs[i%3], Name: "cmd"}); err != nil {
			t.Fatal(err)
		}
	}
	tail := broker.Tail(db, stream.SubOptions{
		Filter: tracedb.Query{Device: "UR3e"}, Buffer: 64, Policy: stream.Block,
	})
	defer tail.Close()

	var got []uint64
	if _, err := snapshotRecords(tail, func(r *store.Record) error {
		if r.Device != "UR3e" {
			t.Errorf("snapshot leaked %s record", r.Device)
		}
		got = append(got, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("snapshot matched %d records, want 10", len(got))
	}
	for i := 0; i < 6; i++ {
		if err := db.Append(store.Record{Device: devs[i%3], Name: "cmd"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		ev, ok := tail.Subscriber().Recv()
		if !ok || ev.Record.Device != "UR3e" {
			t.Fatalf("live event %d: (%s, %v)", i, ev.Record.Device, ok)
		}
	}
}

// snapshotRecords runs tail.Snapshot with fn for every record, decoding the
// blocks it forwards whole with store.BlockReader, and reports how many of
// them came as blocks.
func snapshotRecords(tail *stream.Tail, fn func(*store.Record) error) (blocks int, err error) {
	err = tail.Snapshot(func(payload []byte) error {
		blocks++
		var br store.BlockReader
		if err := br.Reset(payload); err != nil {
			return err
		}
		var r store.Record
		for br.Len() > 0 {
			if err := br.Next(&r); err != nil {
				return err
			}
			if err := fn(&r); err != nil {
				return err
			}
		}
		return nil
	}, fn)
	return blocks, err
}
