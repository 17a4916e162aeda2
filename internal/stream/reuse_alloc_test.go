//go:build !race

package stream_test

import (
	"runtime"
	"testing"

	dataset "rad/internal/rad"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// TestSecondReplayAllocatesOnlyRecords replays the seeded campaign (seed 1,
// scale 0.2: 25,757 records in blocks of 4096, as the serving-path
// benchmark preloads it) twice and counts what the second replay allocates,
// server and client together. It takes the block buffers the first one
// handed back, allocates no subscriber ring, and decodes its records'
// strings and Args into shared chunks, so what is left is mostly those
// chunks: under 45 bytes per record, where exact-size block buffers and an
// up-front ring cost ~100. The spares are shared by every thread, so this
// holds at any GOMAXPROCS (CI runs it at 1 and 2). Excluded under -race,
// whose instrumentation allocates.
func TestSecondReplayAllocatesOnlyRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the seeded campaign")
	}
	ds, err := dataset.Generate(dataset.Config{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	recs := ds.Store.All()
	total := len(recs)
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for off := 0; off < len(recs); off += 4096 {
		if err := db.AppendBatch(recs[off:min(off+4096, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	broker := stream.NewBroker()
	t.Cleanup(broker.Close)
	_, addr := startServer(t, broker, db)

	replay := func() int {
		client, err := stream.Dial(addr, wire.Subscribe{Name: "replay", Snapshot: true})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for n := 0; ; {
			ev, err := client.Recv()
			if err != nil {
				t.Fatalf("recv after %d records: %v", n, err)
			}
			switch ev.Kind {
			case wire.EventSnapshotEnd:
				return n
			case wire.EventTrace:
				n++
			}
		}
	}
	// A replay holds at most two block buffers at once, the server's
	// iterator's and the client connection's, but only one when the
	// server has read its last block before the client reads its first
	// (then the client takes the buffer the server handed back). So that
	// the count below does not depend on that race, two spares of the
	// largest frame size are handed back first; the first replay takes
	// them and must hand them back for the second.
	seed := []*[]byte{store.GrowBlockBuf(nil, wire.MaxFrameSize), store.GrowBlockBuf(nil, wire.MaxFrameSize)}
	for _, pb := range seed {
		store.PutBlockBuf(pb)
	}
	if n := replay(); n != total {
		t.Fatalf("first replay delivered %d records, want %d", n, total)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := replay()
	runtime.ReadMemStats(&after)
	if n != total {
		t.Fatalf("second replay delivered %d records, want %d", n, total)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("second replay: %.1f bytes, %.2f allocations per record", per,
		float64(after.Mallocs-before.Mallocs)/float64(n))
	if per >= 45 {
		t.Errorf("second replay allocated %.1f bytes per record, want under 45", per)
	}
}
