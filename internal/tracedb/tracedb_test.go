package tracedb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/wire"
)

// testRecord builds a deterministic synthetic record; i spreads records
// across devices, command types, runs, and a monotonically increasing
// timeline.
func testRecord(i int) store.Record {
	devices := []string{"C9", "UR3e", "IKA", "Tecan", "Quantos"}
	names := []string{"MVNG", "ARM", "Q", "IN_PV_4", "start_dosing", "MOVE"}
	r := store.Record{
		Time:      time.Unix(1_700_000_000+int64(i)*3, int64(i%7)*1000),
		Device:    devices[i%len(devices)],
		Name:      names[i%len(names)],
		Procedure: store.UnknownProcedure,
		Mode:      "REMOTE",
	}
	r.EndTime = r.Time.Add(5 * time.Millisecond)
	if i%4 == 0 {
		r.Args = []string{fmt.Sprint(i), "fast"}
	}
	if i%11 == 0 {
		r.Run = fmt.Sprintf("run-%d", i%3)
		r.Procedure = "P1"
	}
	if i%53 == 0 {
		r.Exception = "collision fault"
	} else {
		r.Response = "ok"
	}
	return r
}

func testRecords(n int) []store.Record {
	out := make([]store.Record, n)
	for i := range out {
		out[i] = testRecord(i)
	}
	return out
}

// sameRecords compares record slices field-by-field, comparing times by
// instant (the decoder restores wall-clock nanos, not locations).
func sameRecords(t *testing.T, got, want []store.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq ||
			g.Time.UnixNano() != w.Time.UnixNano() ||
			g.EndTime.UnixNano() != w.EndTime.UnixNano() ||
			g.Device != w.Device || g.Name != w.Name ||
			!reflect.DeepEqual(g.Args, w.Args) ||
			g.Response != w.Response || g.Exception != w.Exception ||
			g.Procedure != w.Procedure || g.Run != w.Run || g.Mode != w.Mode {
			t.Fatalf("record %d mismatch:\n got  %+v\n want %+v", i, g, w)
		}
	}
}

// filterSeq applies MemStore-style brute force to the expected record set.
func filterSeq(recs []store.Record, pred func(store.Record) bool) []store.Record {
	var out []store.Record
	for _, r := range recs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// ingest appends recs in blocks of batch via AppendBatch.
func ingest(t *testing.T, db *DB, recs []store.Record, batch int) {
	t.Helper()
	for start := 0; start < len(recs); start += batch {
		end := start + batch
		if end > len(recs) {
			end = len(recs)
		}
		if err := db.AppendBatch(recs[start:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// expected returns the input records with the sequence numbers the DB
// assigns on ingestion.
func expected(recs []store.Record) []store.Record {
	out := make([]store.Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].Seq = uint64(i)
	}
	return out
}

func TestRoundTripRotationAndQueries(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment threshold forces many rotations.
	db, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(2000)
	ingest(t, db, recs, 64)
	want := expected(recs)

	if db.Segments() < 3 {
		t.Errorf("only %d segments, rotation never triggered", db.Segments())
	}
	if db.Len() != len(recs) {
		t.Errorf("Len = %d, want %d", db.Len(), len(recs))
	}

	check := func(db *DB) {
		t.Helper()
		got, err := db.Collect(Query{})
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, got, want)

		queries := []Query{
			{Device: "C9"},
			{Device: "Quantos"},
			{Key: "Tecan.Q"},
			{Run: "run-0"},
			{Procedure: "P1"},
			{From: want[500].Time, To: want[1500].Time},
			{From: want[500].Time, To: want[1500].Time, Device: "IKA"},
			{Device: "nope"},
			{Key: "C9.Q"}, // device exists, key never occurs together
		}
		for _, q := range queries {
			got, err := db.Collect(q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			sameRecords(t, got, filterSeq(want, q.Match))

			// The iterator must agree with Collect.
			var scanned []store.Record
			it := db.Scan(q)
			for it.Next() {
				scanned = append(scanned, it.Record())
			}
			if it.Err() != nil {
				t.Fatalf("%+v: %v", q, it.Err())
			}
			sameRecords(t, scanned, got)
		}

		if got := db.Runs(); !reflect.DeepEqual(got, []string{"run-0", "run-1", "run-2"}) {
			t.Errorf("Runs = %v", got)
		}
		first, last, ok := db.Span()
		if !ok || first.UnixNano() != want[0].Time.UnixNano() ||
			last.UnixNano() != want[len(want)-1].Time.UnixNano() {
			t.Errorf("Span = %v..%v ok=%t", first, last, ok)
		}
	}

	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything must survive a reopen, answered from the recovered index.
	db2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2)
}

func TestStagedAppendsVisibleAndFlushed(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	recs := testRecords(7)
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := expected(recs)

	// Below the staging threshold: nothing committed, but readers see it.
	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want)
	if n := db.Len(); n != 7 {
		t.Errorf("Len = %d, want 7", n)
	}
	got, err = db.Collect(Query{Device: want[1].Device})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, filterSeq(want, Query{Device: want[1].Device}.Match))

	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, want)
}

// TestAppendErrorMeansNotCommitted pins the refusal contract a
// FailoverSink relies on: an Append that returns an error gave the record
// no sequence number, did not stage it, and published it to no hook — so
// spilling a refused record can never duplicate one the store holds.
func TestAppendErrorMeansNotCommitted(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	db.SetOnCommit(func(recs []store.Record) { published += len(recs) })
	for i := 0; i < DefaultBlockRecords-1; i++ {
		if err := db.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Close the active segment underneath: every block write now fails.
	db.segs[len(db.segs)-1].f.Close()
	refused := 0
	for i := DefaultBlockRecords - 1; i < DefaultBlockRecords+4; i++ {
		n, next, pub := db.Len(), db.NextSeq(), published
		if err := db.Append(testRecord(i)); err == nil {
			continue
		}
		refused++
		if db.Len() != n || db.NextSeq() != next || published != pub {
			t.Fatalf("refused append %d changed the store: Len %d→%d, NextSeq %d→%d, published %d→%d",
				i, n, db.Len(), next, db.NextSeq(), pub, published)
		}
	}
	if refused == 0 {
		t.Fatal("no append was refused with the segment file closed")
	}
	_ = db.Close() // the closed file fails the final sync; that is expected
}

// TestAppendBatchBlocksFitOneFrame: a batch too large for one block is
// split into blocks that each fit one wire event frame, header included,
// since a snapshot replay forwards stored blocks as frames. Every block of
// an unfiltered scan is covered, so each one is handed to
// wire.Conn.BufferBlock, which refuses a frame over wire.MaxFrameSize. Each
// record encodes to exactly 1 KiB: a split on exact record sizes would fill
// a block with exactly 1 MiB of records, which its record count and frame
// header would push over the limit.
func TestAppendBatchBlocksFitOneFrame(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs := testRecords(3000)
	for i := range recs {
		r := &recs[i]
		r.Seq, r.Args = uint64(i), []string{""} // the seq AppendBatch assigns
		// The arg's length prefix takes a second byte once it is padded.
		r.Args[0] = strings.Repeat("x", 1<<10-len(store.AppendRecord(nil, r))-1)
		if n := len(store.AppendRecord(nil, r)); n != 1<<10 {
			t.Fatalf("record %d encodes to %d bytes, want 1 KiB", i, n)
		}
	}
	if err := db.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store.AppendBlock(nil, got), store.AppendBlock(nil, recs)) {
		t.Fatal("the store's records differ from the batch")
	}
	wc := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), io.Discard}, wire.V2, nil)
	blocks, largest := 0, 0
	it := db.Scan(Query{})
	for it.NextBlock() {
		payload := it.Block()
		if payload == nil {
			t.Fatalf("record %d of an unfiltered scan was not in a covered block", it.Ref().Seq)
		}
		if err := wc.BufferBlock(payload); err != nil {
			t.Fatalf("block of %d bytes: %v", len(payload), err)
		}
		blocks, largest = blocks+1, max(largest, len(payload))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if blocks < 3 || largest <= wire.MaxFrameSize/2 {
		t.Fatalf("batch split into %d blocks, the largest of %d bytes; want at least 3, one over half of a %d-byte frame", blocks, largest, wire.MaxFrameSize)
	}
}

// TestAppendBatchErrorMeansNotCommitted is the same refusal contract for a
// batch, which DLQ re-ingest and bulk loads rely on: a refused AppendBatch
// gave no record of it a sequence number, and left Len, the index and the
// hooks as they were, whether the batch fits one block or spans several.
// Once the file works again, a failed one-block write has left at most a
// torn frame and writing goes on. A failed write of several blocks whose
// debris could not be truncated may have left whole frames that the next
// Open recovers, so the store refuses every later write instead.
func TestAppendBatchErrorMeansNotCommitted(t *testing.T) {
	split := testRecords(3)
	for i := range split {
		split[i].Response = strings.Repeat("x", targetBlockBytes/2)
	}
	for _, tc := range []struct {
		name   string
		recs   []store.Record
		blocks int // blocks the batch is written as when it succeeds
	}{{"one block", testRecords(2), 1}, {"split", split, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			published := 0
			db.SetOnCommit(func(recs []store.Record) { published += len(recs) })
			if err := db.AppendBatch(tc.recs); err != nil {
				t.Fatal(err)
			}
			active := db.segs[len(db.segs)-1]
			if got := len(active.index.blocks); got != tc.blocks {
				t.Fatalf("batch written as %d blocks, want %d", got, tc.blocks)
			}
			// Close the active segment underneath: every block write now fails.
			active.f.Close()
			n, next, pub := db.Len(), db.NextSeq(), published
			blocks, size := len(active.index.blocks), active.size
			if err := db.AppendBatch(tc.recs); err == nil {
				t.Fatal("AppendBatch succeeded with the segment file closed")
			}
			if db.Len() != n || db.NextSeq() != next || published != pub ||
				len(active.index.blocks) != blocks || active.size != size || db.Segments() != 1 {
				t.Fatalf("refused batch changed the store: Len %d→%d, NextSeq %d→%d, published %d→%d, blocks %d→%d, size %d→%d, segments %d",
					n, db.Len(), next, db.NextSeq(), pub, published, blocks, len(active.index.blocks), size, active.size, db.Segments())
			}
			if active.f, err = os.OpenFile(active.path, os.O_RDWR, 0); err != nil {
				t.Fatal(err)
			}
			err = db.AppendBatch(tc.recs)
			if tc.blocks == 1 {
				if err != nil {
					t.Fatalf("AppendBatch once the file works again: %v", err)
				}
				return
			}
			if !errors.Is(err, errDebris) {
				t.Fatalf("AppendBatch after undropped debris: %v, want errDebris", err)
			}
			if err := db.Append(testRecord(0)); !errors.Is(err, errDebris) {
				t.Fatalf("Append after undropped debris: %v, want errDebris", err)
			}
			if db.NextSeq() != next || db.Len() != n {
				t.Fatalf("refused writes changed the store: NextSeq %d→%d, Len %d→%d", next, db.NextSeq(), n, db.Len())
			}
		})
	}
}

// TestCommitHooksAccumulate: every SetOnCommit adds a hook, and the hooks
// run in the order they were added, each seeing every later commit.
func TestCommitHooksAccumulate(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var log []string
	db.SetOnCommit(func(recs []store.Record) { log = append(log, fmt.Sprintf("a%d", recs[0].Seq)) })
	if err := db.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	db.SetOnCommit(func(recs []store.Record) { log = append(log, fmt.Sprintf("b%d", recs[0].Seq)) })
	if err := db.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendBatch(testRecords(1)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a0", "a1", "b1", "a2", "b2"}; !reflect.DeepEqual(log, want) {
		t.Errorf("hook calls = %v, want %v", log, want)
	}
}

func TestSequenceResumeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, db, testRecords(10), 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.AppendBatch(testRecords(3)); err != nil {
		t.Fatal(err)
	}
	got, err := db2.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 13 {
		t.Fatalf("got %d records, want 13", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d — numbering did not resume", i, r.Seq)
		}
	}
}

func TestClosedDBRejectsOperations(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(testRecord(0)); err != ErrClosed {
		t.Errorf("Append on closed DB: %v, want ErrClosed", err)
	}
	if err := db.AppendBatch(testRecords(2)); err != ErrClosed {
		t.Errorf("AppendBatch on closed DB: %v, want ErrClosed", err)
	}
	if err := db.Flush(); err != ErrClosed {
		t.Errorf("Flush on closed DB: %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestConcurrentReadersDuringIngest exercises the reader/writer contract
// under the race detector: while one writer appends batches, concurrent
// readers must always observe a consistent prefix — records 0..k-1 with
// contiguous sequence numbers.
func TestConcurrentReadersDuringIngest(t *testing.T) {
	db, err := Open(t.TempDir(), Options{SegmentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const total, batch = 3000, 50
	recs := testRecords(total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for start := 0; start < total; start += batch {
			if err := db.AppendBatch(recs[start : start+batch]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var got []store.Record
				var err error
				if w%2 == 0 {
					got, err = db.Collect(Query{})
				} else {
					it := db.Scan(Query{Device: "C9"})
					for it.Next() {
						got = append(got, it.Record())
					}
					err = it.Err()
				}
				if err != nil {
					t.Error(err)
					return
				}
				last := int64(-1)
				for _, r := range got {
					if int64(r.Seq) <= last {
						t.Errorf("non-monotonic seq %d after %d", r.Seq, last)
						return
					}
					last = int64(r.Seq)
				}
			}
		}(w)
	}
	<-done
	wg.Wait()

	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, expected(recs))
}

// TestBatcherFlushBoundary checks the bulk-loader wiring: per-record
// appends staged DefaultBlockRecords at a time land as one block each.
func TestBatcherFlushBoundary(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	recs := testRecords(3*DefaultBlockRecords + 4)
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, expected(recs))
	// Three full staging buffers and a flushed remainder = 4 blocks.
	if nb := len(db.segs[0].index.blocks); nb != 4 {
		t.Errorf("%d blocks on disk, want 4 (one per %d staged appends)", nb, DefaultBlockRecords)
	}
}

// TestIndexedScanReadsFewerBlocks verifies the posting lists actually prune
// block reads — the structural property behind BenchmarkTraceDBScanIndexed.
func TestIndexedScanReadsFewerBlocks(t *testing.T) {
	db, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Confine a rare command type to a narrow stripe of blocks.
	recs := testRecords(4096)
	for i := 1000; i < 1064; i++ {
		recs[i].Device = "Quantos"
		recs[i].Name = "tare"
	}
	ingest(t, db, recs, 64)

	all := 0
	for _, s := range db.segs {
		all += len(s.index.blocks)
	}
	plans, _, _ := db.plan(Query{Key: "Quantos.tare"}, nil)
	cand := 0
	for _, p := range plans {
		cand += len(p.blocks)
	}
	if cand == 0 || cand*4 > all {
		t.Errorf("indexed scan selects %d of %d blocks; want a small fraction", cand, all)
	}
	got, err := db.Collect(Query{Key: "Quantos.tare"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Errorf("indexed scan returned %d records, want 64", len(got))
	}
}
