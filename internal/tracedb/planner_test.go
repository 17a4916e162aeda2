package tracedb

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rad/internal/store"
)

// plannerFixture builds a store with deliberately skewed selectivity: device
// "Bulk" dominates, device "Rare" appears in a handful of records, and one
// command key is rarer still. Batches are homogeneous per device so the
// block purity metadata can prove coverage.
func plannerFixture(t testing.TB) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	base := time.Unix(1_000_000, 0)
	seq := 0
	appendHomogeneous := func(dev, name, run string, n int) {
		recs := make([]store.Record, n)
		for i := range recs {
			recs[i] = store.Record{
				Time:      base.Add(time.Duration(seq) * time.Second),
				Device:    dev,
				Name:      name,
				Args:      []string{fmt.Sprintf("a%d", seq)},
				Response:  "ok",
				Procedure: "P1",
				Run:       run,
				Mode:      "DIRECT",
			}
			seq++
		}
		if err := db.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		appendHomogeneous("Bulk", fmt.Sprintf("cmd%d", i%5), "run-bulk", 20)
		if i%10 == 0 {
			appendHomogeneous("Rare", "probe", "run-rare", 3)
		}
	}
	appendHomogeneous("Rare", "unique", "run-rare", 1)
	return db
}

func TestExplainPicksMostSelectiveDriver(t *testing.T) {
	db := plannerFixture(t)

	// A rare-device filter: its posting list is far shorter than any other.
	pl := db.Explain(Query{Device: "Rare"})
	if pl.Drivers["device"] == 0 {
		t.Fatalf("rare-device query not driven by the device list: %+v", pl.Drivers)
	}
	if pl.CandidateBlocks >= pl.TotalBlocks {
		t.Fatalf("planner read every block (%d of %d) for a rare device",
			pl.CandidateBlocks, pl.TotalBlocks)
	}
	// Homogeneous batches mean the purity metadata proves full coverage.
	if pl.CoveredBlocks == 0 {
		t.Fatalf("no covered blocks for a pure-device query: %+v", pl)
	}

	// Device and key both filter; "Bulk.cmd0" appears in a fifth of the
	// Bulk blocks, so its posting list is strictly shorter than the device
	// list in every segment and must drive.
	pl = db.Explain(Query{Device: "Bulk", Key: "Bulk.cmd0"})
	if pl.Drivers["key"] == 0 {
		t.Fatalf("rarest filter did not drive the plan: %+v", pl.Drivers)
	}
	if dev, key := pl.FilterBlocks["device"], pl.FilterBlocks["key"]; key >= dev {
		t.Fatalf("key list (%d blocks) not shorter than device list (%d)", key, dev)
	}

	// No set filter: every segment is a raw scan.
	pl = db.Explain(Query{})
	if pl.Drivers["scan"] != pl.Segments-pl.SegmentsPruned {
		t.Fatalf("unfiltered query not planned as scans: %+v", pl.Drivers)
	}

	// A value absent from every posting list prunes all segments without
	// reading a block.
	pl = db.Explain(Query{Device: "NoSuchDevice"})
	if pl.SegmentsPruned != pl.Segments || pl.CandidateBlocks != 0 {
		t.Fatalf("absent value did not prune everything: %+v", pl)
	}
}

func TestExplainTimePruning(t *testing.T) {
	db := plannerFixture(t)
	all := db.Explain(Query{})
	base := time.Unix(1_000_000, 0)
	narrow := db.Explain(Query{From: base.Add(10 * time.Second), To: base.Add(20 * time.Second)})
	if narrow.CandidateBlocks >= all.CandidateBlocks {
		t.Fatalf("time window did not prune blocks: %d vs %d",
			narrow.CandidateBlocks, all.CandidateBlocks)
	}
	future := db.Explain(Query{From: base.Add(1e6 * time.Second)})
	if future.CandidateBlocks != 0 {
		t.Fatalf("future window still reads %d blocks", future.CandidateBlocks)
	}
}

// TestPlannerMatchesReferenceFilter is the correctness contract: for every
// query shape — including ones where the covered fast path skips Match
// entirely — the indexed scan returns byte-identical results to the naive
// full-scan + Match reference.
func TestPlannerMatchesReferenceFilter(t *testing.T) {
	db := plannerFixture(t)
	every, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_000_000, 0)
	queries := []Query{
		{},
		{Device: "Bulk"},
		{Device: "Rare"},
		{Device: "NoSuchDevice"},
		{Key: "Rare.unique"},
		{Key: "Bulk.cmd3"},
		{Run: "run-rare"},
		{Procedure: "P1"},
		{Device: "Rare", Key: "Rare.probe"},
		{Device: "Bulk", Run: "run-rare"}, // contradictory: empty
		{From: base.Add(30 * time.Second), To: base.Add(300 * time.Second)},
		{Device: "Bulk", From: base.Add(100 * time.Second), To: base.Add(200 * time.Second)},
	}
	for _, q := range queries {
		var want []store.Record
		for _, r := range every {
			if q.Match(r) {
				want = append(want, r)
			}
		}
		got, err := db.Collect(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if !bytes.Equal(store.AppendBlock(nil, want), store.AppendBlock(nil, got)) {
			t.Fatalf("query %+v: indexed scan %d records, reference %d", q, len(got), len(want))
		}
		// The iterator path agrees with Collect.
		var itGot []store.Record
		it := db.Scan(q)
		for it.Next() {
			itGot = append(itGot, it.Record())
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if !bytes.Equal(store.AppendBlock(nil, want), store.AppendBlock(nil, itGot)) {
			t.Fatalf("query %+v: iterator %d records, reference %d", q, len(itGot), len(want))
		}
	}
}

// TestPlannerMatchesReferenceAfterCompaction re-runs the reference check on
// a compacted store: rebuilt posting lists, merged blocks, and recomputed
// purity metadata must not change a single result.
func TestPlannerMatchesReferenceAfterCompaction(t *testing.T) {
	db := plannerFixture(t)
	every, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{}, {Device: "Rare"}, {Key: "Rare.unique"}, {Run: "run-bulk"},
		{Device: "Bulk", Key: "Bulk.cmd1"},
	} {
		var want []store.Record
		for _, r := range every {
			if q.Match(r) {
				want = append(want, r)
			}
		}
		got, err := db.Collect(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if !bytes.Equal(store.AppendBlock(nil, want), store.AppendBlock(nil, got)) {
			t.Fatalf("post-compaction query %+v: %d records, reference %d", q, len(got), len(want))
		}
	}
	// Compaction merges homogeneous runs into mixed blocks, so coverage may
	// shrink — but the planner must still prune and still drive off a list.
	pl := db.Explain(Query{Device: "Rare"})
	if pl.Drivers["device"] == 0 && pl.Drivers["scan"] == 0 {
		t.Fatalf("no driver after compaction: %+v", pl.Drivers)
	}
}

func TestIteratorCloseReleasesSnapshot(t *testing.T) {
	db := plannerFixture(t)
	it := db.Scan(Query{})
	if !it.Next() {
		t.Fatal("empty store")
	}
	it.Close()
	// Close is idempotent and ends iteration.
	it.Close()
	if it.Next() {
		t.Fatal("Next after Close")
	}
	// All snapshot references are back: a compaction can retire and unlink
	// every sealed source immediately.
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	retired := len(db.retired)
	db.mu.RUnlock()
	if retired != 0 {
		t.Fatalf("%d retired segments still pinned after iterator Close", retired)
	}
}
