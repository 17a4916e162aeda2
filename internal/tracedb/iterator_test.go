package tracedb

import (
	"bytes"
	"reflect"
	"testing"

	"rad/internal/store"
)

// TestIteratorReuseKeepsCopiedRecords pins the iterator's buffer reuse
// against aliasing: it decodes every block into the same record slice, so a
// record copied out with Record must not change when later blocks are
// decoded — on the covered path (no re-filter) and on the re-filtered one.
// Record after exhaustion and after Close returns the last record, as it
// did before the reuse. NextBlock walks the same records, handing out the
// covered blocks whole and the rest in place (Ref).
func TestIteratorReuseKeepsCopiedRecords(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db, testRecords(600), 100) // six blocks

	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"covered", Query{}},
		{"refiltered", Query{Device: "UR3e"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := db.Collect(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if pl := db.Explain(tc.q); pl.CandidateBlocks < 3 {
				t.Fatalf("query reads %d blocks, want >= 3", pl.CandidateBlocks)
			}
			it := db.Scan(tc.q)
			var got []store.Record
			for it.Next() {
				got = append(got, it.Record())
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			sameRecords(t, got, want)
			// After exhaustion Record still returns the last record.
			sameRecords(t, []store.Record{it.Record()}, want[len(want)-1:])

			it = db.Scan(tc.q)
			got, blocks := nil, 0
			for it.NextBlock() {
				payload := it.Block()
				if payload == nil {
					if !reflect.DeepEqual(*it.Ref(), it.Record()) {
						t.Fatalf("Ref and Record disagree at seq %d", it.Record().Seq)
					}
					got = append(got, it.Record())
					continue
				}
				blocks++
				var br store.BlockReader
				if err := br.Reset(payload); err != nil {
					t.Fatal(err)
				}
				for br.Len() > 0 {
					var r store.Record
					if err := br.Next(&r); err != nil {
						t.Fatal(err)
					}
					got = append(got, r)
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			sameRecords(t, got, want)
			if covered := db.Explain(tc.q).CoveredBlocks; blocks != covered {
				t.Fatalf("NextBlock handed out %d blocks whole, the plan covers %d", blocks, covered)
			}

			// Close mid-scan, past the first block, ends the iteration and
			// leaves Record on the last record Next positioned.
			half := len(want) / 2
			it = db.Scan(tc.q)
			for i := 0; i < half; i++ {
				if !it.Next() {
					t.Fatalf("scan ended after %d records", i)
				}
			}
			it.Close()
			if it.Next() {
				t.Fatal("Next after Close")
			}
			sameRecords(t, []store.Record{it.Record()}, want[half-1:half])
		})
	}
}

// TestIteratorRecordAfterEmptyBlocks covers the case buffer reuse makes
// delicate: the blocks after the last match are candidates that re-filter
// to nothing. Decoding them must not disturb the current record, which
// Record keeps returning after exhaustion.
func TestIteratorRecordAfterEmptyBlocks(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// All blocks hold 20 records, so the empty ones decode into the storage
	// the matching one grew.
	block := func(match bool) []store.Record {
		var recs []store.Record
		for i := 0; i < 10; i++ {
			if match {
				recs = append(recs,
					store.Record{Device: "UR3e", Name: "movej", Run: "a", Response: string(rune('a' + i))},
					store.Record{Device: "UR3e", Name: "movej", Run: "a", Response: string(rune('A' + i))})
				continue
			}
			// Each record matches one filter, none both: the block is a
			// candidate for the query below, yet yields nothing.
			recs = append(recs,
				store.Record{Device: "UR3e", Name: "movej", Run: "b"},
				store.Record{Device: "C9", Name: "MVNG", Run: "a"})
		}
		return recs
	}
	for _, match := range []bool{true, false, false} {
		if err := db.AppendBatch(block(match)); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Device: "UR3e", Run: "a"}
	if pl := db.Explain(q); pl.CandidateBlocks != 3 || pl.CoveredBlocks != 1 {
		t.Fatalf("plan %+v, want 3 candidate blocks, the last two re-filtered", pl)
	}
	want, err := db.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 20 {
		t.Fatalf("Collect matched %d records, want 20", len(want))
	}
	it := db.Scan(q)
	if !reflect.DeepEqual(it.Record(), store.Record{}) {
		t.Fatalf("Record before Next = %+v, want the zero record", it.Record())
	}
	n := 0
	for it.Next() {
		n++
	}
	if n != 20 {
		t.Fatalf("Scan yielded %d records, want 20", n)
	}
	last := want[len(want)-1]
	sameRecords(t, []store.Record{it.Record()}, []store.Record{last})
	it.Close()
	sameRecords(t, []store.Record{it.Record()}, []store.Record{last})
}

// TestIteratorBlockOutlivesOtherScans: a covered block NextBlock positions
// lives in a buffer from a pool that every scan shares. It must stay as
// read while other scans take buffers from that pool and hand them back,
// until its iterator advances, and Close must not hand a positioned
// block's buffer to the next scan.
func TestIteratorBlockOutlivesOtherScans(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingest(t, db, testRecords(600), 100) // six blocks
	// Four scans in lockstep hold four buffers at once, so they take every
	// spare the pool holds.
	scanAll := func() {
		its := make([]*Iterator, 4)
		for i := range its {
			its[i] = db.Scan(Query{})
		}
		for more := true; more; {
			more = false
			for _, o := range its {
				more = o.NextBlock() || more
			}
		}
		for _, o := range its {
			if err := o.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	it := db.Scan(Query{})
	for _, close := range []bool{false, true} {
		if !it.NextBlock() {
			t.Fatal("no block to position")
		}
		block := it.Block()
		if block == nil {
			t.Fatal("an unfiltered scan positioned a record, not a block")
		}
		want := bytes.Clone(block)
		if close {
			it.Close()
		}
		scanAll()
		scanAll()
		if !bytes.Equal(block, want) {
			t.Fatalf("a positioned block changed while other scans ran (closed: %v)", close)
		}
	}
}
