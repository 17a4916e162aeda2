package tracedb

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"rad/internal/store"
)

// writeThreeBatches builds a single-segment store of three 20-record blocks
// and returns the segment path plus the block frame boundaries (file offsets
// at which each block ends) and the expected records.
func writeThreeBatches(t *testing.T, dir string) (segPath string, ends []int64, total int) {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(60)
	ingest(t, db, recs, 20)
	if db.Segments() != 1 {
		t.Fatalf("%d segments, want 1", db.Segments())
	}
	for _, m := range db.segs[0].index.blocks {
		ends = append(ends, m.off+store.FrameHeaderSize+int64(m.payloadLen))
	}
	if len(ends) != 3 {
		t.Fatalf("%d blocks, want 3", len(ends))
	}
	segPath = db.segs[0].path
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return segPath, ends, len(recs)
}

// reopenAndCheck reopens the store and asserts it holds exactly the first
// wantRecords synthetic records with intact sequence numbers, then appends
// one more record and checks numbering resumed.
func reopenAndCheck(t *testing.T, dir string, wantRecords int) {
	t.Helper()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer db.Close()
	got, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, expected(testRecords(wantRecords)))

	// Sequence numbering resumes after the highest surviving record.
	if err := db.AppendBatch(testRecords(1)); err != nil {
		t.Fatal(err)
	}
	got, err = db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != wantRecords+1 || got[len(got)-1].Seq != uint64(wantRecords) {
		t.Fatalf("after resume: %d records, last seq %d; want %d records, last seq %d",
			len(got), got[len(got)-1].Seq, wantRecords+1, wantRecords)
	}
}

// TestRecoveryTornTailWrite simulates a crash mid-batch: a block header and
// part of its payload reach the disk, the rest doesn't. Reopening must
// recover every fully-flushed block, truncate the torn bytes, and resume.
func TestRecoveryTornTailWrite(t *testing.T) {
	dir := t.TempDir()
	segPath, _, total := writeThreeBatches(t, dir)

	// Append a torn fourth block: a plausible header announcing a 500-byte
	// payload of which only 17 bytes landed.
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0, 0, 1, 244, 0xde, 0xad, 0xbe, 0xef}
	torn = append(torn, make([]byte, 17)...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// Opening truncates the torn bytes off the file.
	probe, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Errorf("torn tail not truncated: %d -> %d bytes (torn %d)",
			before.Size(), after.Size(), len(torn))
	}

	reopenAndCheck(t, dir, total)
}

// TestRecoveryTruncatedMidBlock cuts the file inside the last block: the
// two complete blocks survive, the torn one is dropped.
func TestRecoveryTruncatedMidBlock(t *testing.T) {
	dir := t.TempDir()
	segPath, ends, _ := writeThreeBatches(t, dir)
	if err := os.Truncate(segPath, ends[2]-7); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, 40)
}

// TestRecoveryCorruptMiddleBlock flips one payload byte in the second
// block: recovery keeps the first block and drops everything from the
// corruption on.
func TestRecoveryCorruptMiddleBlock(t *testing.T) {
	dir := t.TempDir()
	segPath, ends, _ := writeThreeBatches(t, dir)
	f, err := os.OpenFile(segPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := ends[0] + store.FrameHeaderSize + 3 // inside block 2's payload
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, pos); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck(t, dir, 20)
}

// TestRecoveryHeaderOnlyAndGarbageFiles covers the degenerate torn states:
// an empty file, a partial magic header, and a file full of garbage all
// recover to an empty segment without a panic.
func TestRecoveryHeaderOnlyAndGarbageFiles(t *testing.T) {
	for name, content := range map[string][]byte{
		"empty":   nil,
		"partial": []byte(segMagic[:3]),
		"garbage": []byte("this is not a tracedb segment at all"),
		"header":  []byte(segMagic),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(segmentPath(dir, 0), content, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Len() != 0 {
				t.Errorf("recovered %d records from %s file", db.Len(), name)
			}
			if err := db.AppendBatch(testRecords(2)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveryMultiSegment breaks only the last of several segments: the
// earlier segments must be untouched.
func TestRecoveryMultiSegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(1200)
	ingest(t, db, recs, 60)
	nseg := db.Segments()
	if nseg < 3 {
		t.Fatalf("%d segments, want >= 3", nseg)
	}
	last := db.segs[nseg-1]
	lastPath := last.path
	inLast := last.index.count
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the last segment's first block header.
	f, err := os.OpenFile(lastPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, int64(len(segMagic))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got, expected(testRecords(len(recs)-inLast)))
}

// TestRecoveryIgnoresForeignFiles checks Open only adopts seg-%08d.seg
// files.
func TestRecoveryIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "seg-1.seg", "seg-000000001.seg", "seg-00000001.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Segments() != 1 {
		t.Errorf("%d segments, want just the fresh one", db.Segments())
	}
}

// TestRecoveryBoundsBlockRecordCount: a block's announced record count is
// bounded by the smallest record, so a payload announcing more records than
// its bytes can hold is rejected before any room is made for them — the
// recovery scan decodes CRC-valid blocks of up to store.MaxFramePayload — while a
// payload of exactly that many minimal records still decodes.
func TestRecoveryBoundsBlockRecordCount(t *testing.T) {
	const size = 1 << 20
	lying := binary.AppendUvarint(nil, size)
	lying = append(lying, make([]byte, size-len(lying))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodePayload(new(store.BlockReader), lying, nil, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a payload announcing more records than it holds decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("rejecting the payload allocated %d bytes, want under 1 MiB", n)
	}

	const count = 4096
	full := binary.AppendUvarint(nil, count)
	full = append(full, make([]byte, count*store.MinRecordBytes)...)
	recs, err := decodePayload(new(store.BlockReader), full, nil, nil)
	if err != nil || len(recs) != count {
		t.Fatalf("payload of %d minimal records: %d decoded, err %v", count, len(recs), err)
	}
}

// TestWrittenIndexEqualsRecovered: the index a store builds while it
// writes, through per-record appends and their flushes, AppendBatch and a
// compaction's output, equals the index Open rebuilds from the same files.
func TestWrittenIndexEqualsRecovered(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 4 << 10}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(600)
	appendFlushing(t, db, recs[:200], 16)
	for i := 200; i < 400; i += 50 {
		if err := db.AppendBatch(recs[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsIn < 2 {
		t.Fatalf("compaction merged %d segments, want a run of them", stats.SegmentsIn)
	}
	appendFlushing(t, db, recs[400:], 16)
	written := segmentIndexes(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recovered := segmentIndexes(db)
	if len(written) != len(recovered) {
		t.Fatalf("%d segments written, %d recovered", len(written), len(recovered))
	}
	for name, w := range written {
		if r, ok := recovered[name]; !ok || !reflect.DeepEqual(w, r) {
			t.Errorf("segment %s: index written\n%+v\nrecovered\n%+v", name, w, r)
		}
	}
}

// appendFlushing appends recs one at a time and flushes after every
// perBlock of them and at the end, so each run of perBlock per-record
// appends lands as one block.
func appendFlushing(t *testing.T, db *DB, recs []store.Record, perBlock int) {
	t.Helper()
	for i, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perBlock == 0 || i == len(recs)-1 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// segmentIndexes returns each segment's index by file name.
func segmentIndexes(db *DB) map[string]segmentIndex {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]segmentIndex)
	for _, s := range db.segs {
		out[filepath.Base(s.path)] = s.index
	}
	return out
}
