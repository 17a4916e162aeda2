package rad_test

// Benchmarks for the persistent trace store: batched ingest throughput,
// and the payoff of the per-segment posting lists — an indexed
// per-command-type scan against a full-segment scan over the same
// campaign. Run:
//
//	go test -bench=BenchmarkTraceDB -benchmem

import (
	"fmt"
	"testing"

	"rad"
)

// BenchmarkTraceDBAppend measures batched ingest: one AppendBatch (= one
// on-disk block) of 256 records per iteration.
func BenchmarkTraceDBAppend(b *testing.B) {
	ds := benchDataset(b)
	recs := ds.Store.All()
	const batch = 256
	if len(recs) < batch {
		b.Fatalf("campaign too small: %d records", len(recs))
	}
	db, err := rad.OpenTraceDB(b.TempDir(), rad.TraceDBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AppendBatch(recs[(i*batch)%(len(recs)-batch) : (i*batch)%(len(recs)-batch)+batch]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(batch, "records/op")
}

// BenchmarkTraceDBAppendDistinct is BenchmarkTraceDBAppend on the block
// shape the index gains least on: within each 256-record batch every
// record has its own device, command name, run and procedure, so the
// index's one-pass tally holds as many values as the block has records.
// The campaign's blocks hold a few dozen distinct command types and a
// handful of runs and procedures. The same 256 values recur from batch to
// batch, as a segment's devices and command types do.
func BenchmarkTraceDBAppendDistinct(b *testing.B) {
	ds := benchDataset(b)
	const batch = 256
	recs := make([]rad.TraceRecord, batch)
	copy(recs, ds.Store.All())
	for i := range recs {
		recs[i].Device = fmt.Sprintf("dev%d", i)
		recs[i].Name = fmt.Sprintf("cmd%d", i)
		recs[i].Run = fmt.Sprintf("run-%d", i)
		recs[i].Procedure = fmt.Sprintf("proc%d", i)
	}
	db, err := rad.OpenTraceDB(b.TempDir(), rad.TraceDBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(batch, "records/op")
}

// BenchmarkTraceDBScanIndexed compares an indexed scan (posting lists prune
// non-matching blocks before any disk read) against a full scan that decodes
// the whole campaign and filters in memory — same result set, same store.
func BenchmarkTraceDBScanIndexed(b *testing.B) {
	ds := benchDataset(b)
	recs := ds.Store.All()
	db, err := rad.OpenTraceDB(b.TempDir(), rad.TraceDBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < len(recs); i += 512 {
		if err := db.AppendBatch(recs[i:min(i+512, len(recs))]); err != nil {
			b.Fatal(err)
		}
	}

	// A rare command type: present, but confined to few blocks.
	const key = "Quantos.start_dosing"
	q := rad.TraceQuery{Key: key}
	want := 0
	for _, r := range recs {
		if r.Key() == key {
			want++
		}
	}
	if want == 0 {
		b.Fatalf("campaign has no %s records", key)
	}

	b.Run("Indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := db.Collect(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != want {
				b.Fatalf("indexed scan found %d records, want %d", len(got), want)
			}
		}
	})
	b.Run("FullScan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			it := db.Scan(rad.TraceQuery{}) // every block read and decoded
			for it.Next() {
				if it.Record().Key() == key {
					n++
				}
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("full scan found %d records, want %d", n, want)
			}
		}
	})
}

// BenchmarkCompactedScanIndexed measures what the compactor buys a reader:
// the same campaign ingested through tiny flushes (every 4-record batch is
// one on-disk block — the fragmentation pattern of a chatty middlebox at a
// short flush interval) is queried before and after Compact. Scan-shaped
// reads — a full scan, and a time-window slice driven by the block time
// index — pay a header read, CRC check, allocation, and decode per block;
// the compacted store answers the same queries from dense 64KB blocks.
// (Ultra-selective point queries are the flip side: block granularity is
// the pruning unit, so BenchmarkTraceDBScanIndexed's rare-key shape favors
// fine-grained blocks — see DESIGN.md for the trade-off.)
func BenchmarkCompactedScanIndexed(b *testing.B) {
	ds := benchDataset(b)
	recs := ds.Store.All()
	lo, hi := recs[len(recs)*2/5].Time, recs[len(recs)*3/5].Time // middle fifth
	window := rad.TraceQuery{From: lo, To: hi}
	wantWindow := 0
	for _, r := range recs {
		if window.Match(r) {
			wantWindow++
		}
	}

	build := func(b *testing.B, compact bool) *rad.TraceDB {
		// Small write segments so the ingest seals several; only sealed
		// segments are compaction sources.
		db, err := rad.OpenTraceDB(b.TempDir(), rad.TraceDBOptions{SegmentBytes: 256 << 10})
		if err != nil {
			b.Fatal(err)
		}
		const flush = 4
		for i := 0; i < len(recs); i += flush {
			j := i + flush
			if j > len(recs) {
				j = len(recs)
			}
			if err := db.AppendBatch(recs[i:j]); err != nil {
				b.Fatal(err)
			}
		}
		if compact {
			stats, err := db.Compact()
			if err != nil {
				b.Fatal(err)
			}
			if stats.BlocksOut >= stats.BlocksIn {
				b.Fatalf("compaction did not merge: %+v", stats)
			}
		}
		return db
	}
	scans := func(db *rad.TraceDB) (full, windowed func(b *testing.B)) {
		full = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := db.Collect(rad.TraceQuery{})
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(recs) {
					b.Fatalf("full scan found %d records, want %d", len(got), len(recs))
				}
			}
		}
		windowed = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := db.Collect(window)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != wantWindow {
					b.Fatalf("window scan found %d records, want %d", len(got), wantWindow)
				}
			}
		}
		return full, windowed
	}

	frag := build(b, false)
	defer frag.Close()
	dense := build(b, true)
	defer dense.Close()
	fragFull, fragWin := scans(frag)
	denseFull, denseWin := scans(dense)
	b.Run("FullScan/Fragmented", fragFull)
	b.Run("FullScan/Compacted", denseFull)
	b.Run("TimeWindow/Fragmented", fragWin)
	b.Run("TimeWindow/Compacted", denseWin)
}

// BenchmarkPlannerSelectivity isolates the query planner: the same
// two-filter query answered by the selectivity planner (shortest posting
// list drives, residual predicate pushed into the block scan, covered
// blocks skip it entirely) versus the naive reference — decode everything,
// filter per record. Planning itself (Explain) is benchmarked separately:
// it touches only index metadata and must stay microseconds-cheap.
func BenchmarkPlannerSelectivity(b *testing.B) {
	ds := benchDataset(b)
	recs := ds.Store.All()
	db, err := rad.OpenTraceDB(b.TempDir(), rad.TraceDBOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < len(recs); i += 512 {
		if err := db.AppendBatch(recs[i:min(i+512, len(recs))]); err != nil {
			b.Fatal(err)
		}
	}

	q := rad.TraceQuery{Device: "Quantos", Key: "Quantos.start_dosing"}
	want := 0
	for _, r := range recs {
		if r.Device == "Quantos" && r.Key() == "Quantos.start_dosing" {
			want++
		}
	}

	b.Run("Planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := db.Collect(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != want {
				b.Fatalf("planned scan found %d records, want %d", len(got), want)
			}
		}
	})
	b.Run("Naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			it := db.Scan(rad.TraceQuery{})
			for it.Next() {
				r := it.Record()
				if r.Device == "Quantos" && r.Key() == "Quantos.start_dosing" {
					n++
				}
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("naive scan found %d records, want %d", n, want)
			}
		}
	})
	b.Run("Explain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl := db.Explain(q)
			if pl.CandidateBlocks == 0 {
				b.Fatal("planner found no candidate blocks")
			}
		}
	})
}
