package tracedb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rad/internal/simclock"
	"rad/internal/store"
)

// lcRecords builds n records with deterministic devices, keys, runs, and
// strictly increasing times starting at base, i seconds apart.
func lcRecords(n int, base time.Time) []store.Record {
	devices := []string{"UR3e", "C9", "IKA", "Quantos", "Tecan"}
	recs := make([]store.Record, n)
	for i := range recs {
		dev := devices[i%len(devices)]
		recs[i] = store.Record{
			Time:      base.Add(time.Duration(i) * time.Second),
			EndTime:   base.Add(time.Duration(i)*time.Second + 50*time.Millisecond),
			Device:    dev,
			Name:      fmt.Sprintf("cmd%d", i%7),
			Args:      []string{fmt.Sprintf("a%d", i)},
			Response:  "ok",
			Procedure: fmt.Sprintf("P%d", i%3+1),
			Run:       fmt.Sprintf("run-%d", i/50),
			Mode:      "DIRECT",
		}
	}
	return recs
}

// ingestSmallBlocks appends recs in tiny batches, the shape a chatty
// Batcher leaves behind: every batch is one small on-disk block.
func ingestSmallBlocks(t testing.TB, db *DB, recs []store.Record, perBlock int) {
	t.Helper()
	for i := 0; i < len(recs); i += perBlock {
		j := i + perBlock
		if j > len(recs) {
			j = len(recs)
		}
		if err := db.AppendBatch(recs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
}

// canonical renders a record set in the store's canonical block encoding —
// the byte-identity oracle for before/after comparisons.
func canonical(t testing.TB, recs []store.Record) []byte {
	t.Helper()
	return store.AppendBlock(nil, recs)
}

func collectAll(t testing.TB, db *DB) []store.Record {
	t.Helper()
	recs, err := db.Collect(Query{})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestCompactMergesSmallBlocks(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	recs := lcRecords(2000, time.Unix(1000, 0))
	ingestSmallBlocks(t, db, recs, 4) // 500 tiny blocks over many segments
	before := collectAll(t, db)
	if len(before) != len(recs) {
		t.Fatalf("ingested %d records, collected %d", len(recs), len(before))
	}
	segsBefore := db.Segments()
	blocksBefore := db.indexBlocks()

	stats, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compactions == 0 {
		t.Fatalf("no compaction ran over %d segments / %d blocks", segsBefore, blocksBefore)
	}
	if stats.Records != len(recs)-stats.Records && stats.Records == 0 {
		t.Fatalf("compaction rewrote no records")
	}
	if db.indexBlocks() >= blocksBefore {
		t.Fatalf("blocks did not shrink: %d -> %d", blocksBefore, db.indexBlocks())
	}
	if db.Segments() >= segsBefore {
		t.Fatalf("segments did not shrink: %d -> %d", segsBefore, db.Segments())
	}

	after := collectAll(t, db)
	if !bytes.Equal(canonical(t, before), canonical(t, after)) {
		t.Fatalf("query results changed across compaction: %d vs %d records", len(before), len(after))
	}

	// Durability: reopen and compare again; the covered sources are gone.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reopened := collectAll(t, db2)
	if !bytes.Equal(canonical(t, before), canonical(t, reopened)) {
		t.Fatalf("reopened store differs after compaction")
	}
	// Ingest continues cleanly after a compaction: sequence numbers resume.
	if err := db2.AppendBatch(lcRecords(8, time.Unix(5000, 0))); err != nil {
		t.Fatal(err)
	}
	if got := db2.Len(); got != len(recs)+8 {
		t.Fatalf("post-compaction append: Len %d, want %d", got, len(recs)+8)
	}
}

func TestCompactIdempotentWhenDense(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingestSmallBlocks(t, db, lcRecords(1000, time.Unix(1000, 0)), 4)
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	stats, err := db.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compactions != 0 {
		t.Fatalf("second compaction re-ran %d steps on a dense store", stats.Compactions)
	}
}

// TestCompactKeepsSnapshotReadable pins the copy-on-write contract: an
// iterator planned before a compaction drains the pre-compaction bytes it
// planned, the retired source files are unlinked only after it finishes,
// and the results are byte-identical to a pre-compaction scan.
func TestCompactKeepsSnapshotReadable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs := lcRecords(1500, time.Unix(1000, 0))
	ingestSmallBlocks(t, db, recs, 4)
	want := canonical(t, collectAll(t, db))

	// Record the source segment paths, then open the snapshot.
	db.mu.RLock()
	var paths []string
	for _, s := range db.segs[:len(db.segs)-1] {
		paths = append(paths, s.path)
	}
	db.mu.RUnlock()
	it := db.Scan(Query{})
	if !it.Next() {
		t.Fatal("empty snapshot")
	}

	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// The snapshot still pins the retired sources on disk.
	pinned := 0
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatalf("all %d source files unlinked under a live snapshot", len(paths))
	}

	got := []store.Record{it.Record()}
	for it.Next() {
		got = append(got, it.Record())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("snapshot read after compaction: %v", err)
	}
	if !bytes.Equal(want, canonical(t, got)) {
		t.Fatalf("snapshot drained different records after compaction")
	}
	// Drained: the retired sources are gone now.
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("retired segment %s still on disk after snapshot drained", p)
		}
	}
}

// TestCompactCrashBeforeRenameRecovers simulates dying after the compacted
// temp file is written but before the rename: the temp is debris, the
// sources are authoritative, and reopening loses nothing.
func TestCompactCrashBeforeRenameRecovers(t *testing.T) {
	testCompactCrash(t, "temp-written")
}

// TestCompactCrashAfterRenameRecovers simulates dying after the rename but
// before the sources are unlinked: the compacted segment is authoritative
// and the covered sources are discarded, not double-counted.
func TestCompactCrashAfterRenameRecovers(t *testing.T) {
	testCompactCrash(t, "renamed")
}

func testCompactCrash(t *testing.T, stage string) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	recs := lcRecords(1200, time.Unix(1000, 0))
	ingestSmallBlocks(t, db, recs, 4)
	want := canonical(t, collectAll(t, db))

	boom := errors.New("simulated crash")
	compactHook = func(s string) error {
		if s == stage {
			return boom
		}
		return nil
	}
	defer func() { compactHook = nil }()
	if _, err := db.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact error = %v, want simulated crash", err)
	}
	compactHook = nil
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if stage == "temp-written" {
		// The crash window left a temp file behind.
		tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
		if len(tmps) == 0 {
			t.Fatalf("crash at %q left no temp file", stage)
		}
	} else {
		// The crash window left the compacted file alongside its sources.
		cpts, _ := filepath.Glob(filepath.Join(dir, "seg-*-*.seg"))
		if len(cpts) == 0 {
			t.Fatalf("crash at %q left no compacted file", stage)
		}
	}

	db2, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatalf("recovery after crash at %q: %v", stage, err)
	}
	defer db2.Close()
	got := canonical(t, collectAll(t, db2))
	if !bytes.Equal(want, got) {
		t.Fatalf("store differs after crash at %q: %d vs %d bytes", stage, len(want), len(got))
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if len(tmps) != 0 {
		t.Fatalf("recovery left temp debris: %v", tmps)
	}
	// The store compacts cleanly after recovery.
	if _, err := db2.Compact(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, collectAll(t, db2))) {
		t.Fatalf("store differs after post-recovery compaction")
	}
}

func TestRetainMaxAge(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1_000_000, 0)
	clock := simclock.NewVirtual(base.Add(3000 * time.Second))
	db, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Clock:        clock,
		Lifecycle:    LifecycleOptions{RetainMaxAge: 1000 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs := lcRecords(2000, base) // spans [base, base+2000s); horizon is base+2000s
	ingestSmallBlocks(t, db, recs, 4)
	before := collectAll(t, db)

	stats, err := db.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired == 0 || stats.RecordsDropped == 0 {
		t.Fatalf("retention retired nothing: %+v", stats)
	}
	horizon := base.Add(2000 * time.Second)
	if !stats.Horizon.Equal(horizon) {
		t.Fatalf("horizon %v, want %v", stats.Horizon, horizon)
	}

	after := collectAll(t, db)
	if len(after)+stats.RecordsDropped != len(recs) {
		t.Fatalf("dropped %d + kept %d != %d ingested", stats.RecordsDropped, len(after), len(recs))
	}
	// Whole-segment deletion drops a prefix of the sequence order: the
	// survivors are exactly the suffix of the pre-retention contents,
	// byte-identical — no gap, no mutation.
	want := before[len(before)-len(after):]
	if !bytes.Equal(canonical(t, want), canonical(t, after)) {
		t.Fatalf("survivors are not the ingested suffix")
	}
	for i := 1; i < len(after); i++ {
		if after[i].Seq != after[i-1].Seq+1 {
			t.Fatalf("retention tore a seq gap inside survivors: %d -> %d", after[i-1].Seq, after[i].Seq)
		}
	}

	// Reopen: the retired segments stay gone.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reopened := collectAll(t, db2)
	if !bytes.Equal(canonical(t, after), canonical(t, reopened)) {
		t.Fatalf("reopened store differs after retention")
	}
}

func TestRetainMaxBytes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Lifecycle:    LifecycleOptions{RetainMaxBytes: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs := lcRecords(3000, time.Unix(1000, 0))
	ingestSmallBlocks(t, db, recs, 8)
	before := db.sizeBytes()
	if before <= 64<<10 {
		t.Fatalf("store too small to exercise the byte budget: %d", before)
	}

	stats, err := db.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired == 0 {
		t.Fatal("byte-budget retention retired nothing")
	}
	if got := db.sizeBytes(); got > 64<<10 {
		t.Fatalf("store still %d bytes after retention (budget %d)", got, 64<<10)
	}
	after := collectAll(t, db)
	for i := 1; i < len(after); i++ {
		if after[i].Seq != after[i-1].Seq+1 {
			t.Fatalf("seq gap inside survivors: %d -> %d", after[i-1].Seq, after[i].Seq)
		}
	}
	// The active segment is never retired: the newest records survive.
	if after[len(after)-1].Seq != uint64(len(recs)-1) {
		t.Fatalf("newest record lost: tail seq %d, want %d", after[len(after)-1].Seq, len(recs)-1)
	}
}

func TestRetainNoPolicyIsNoop(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingestSmallBlocks(t, db, lcRecords(100, time.Unix(1000, 0)), 10)
	stats, err := db.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired != 0 || stats.RecordsDropped != 0 {
		t.Fatalf("no-policy retention did work: %+v", stats)
	}
}

// TestRetainKeepsSnapshotReadable: retention under a live snapshot defers
// the unlink until the snapshot drains, and the snapshot sees every record
// it planned — the gap-free guarantee a concurrent tail relies on.
func TestRetainKeepsSnapshotReadable(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1_000_000, 0)
	clock := simclock.NewVirtual(base.Add(3000 * time.Second))
	db, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Clock:        clock,
		Lifecycle:    LifecycleOptions{RetainMaxAge: 500 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs := lcRecords(2000, base)
	ingestSmallBlocks(t, db, recs, 4)
	want := canonical(t, collectAll(t, db))

	it := db.Scan(Query{})
	if !it.Next() {
		t.Fatal("empty snapshot")
	}
	stats, err := db.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired == 0 {
		t.Fatal("retention retired nothing under snapshot")
	}
	got := []store.Record{it.Record()}
	for it.Next() {
		got = append(got, it.Record())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("snapshot read after retention: %v", err)
	}
	if !bytes.Equal(want, canonical(t, got)) {
		t.Fatalf("snapshot lost records to retention: %d of %d", len(got), len(recs))
	}
	// New scans see only the survivors.
	if fresh := collectAll(t, db); len(fresh) != len(recs)-stats.RecordsDropped {
		t.Fatalf("fresh scan sees %d records, want %d", len(fresh), len(recs)-stats.RecordsDropped)
	}
}

func TestLifecycleBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Lifecycle:    LifecycleOptions{Interval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := lcRecords(2000, time.Unix(1000, 0))
	ingestSmallBlocks(t, db, recs, 4)
	blocksBefore := db.indexBlocks()

	deadline := time.Now().Add(5 * time.Second)
	for db.lcStats.compactions.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if db.lcStats.compactions.Load() == 0 {
		t.Fatal("background loop never compacted")
	}
	if err := db.Close(); err != nil { // stops the loop; must not deadlock
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := len(collectAll(t, db2)); got != len(recs) {
		t.Fatalf("background compaction lost records: %d of %d", got, len(recs))
	}
	if db2.indexBlocks() >= blocksBefore {
		t.Fatalf("background compaction did not densify: %d -> %d blocks", blocksBefore, db2.indexBlocks())
	}
}

func TestLifecycleInfo(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1_000_000, 0)
	// Horizon lands at base+1500s: the oldest sealed segments expire but
	// fragmented sealed survivors remain for the compactor.
	clock := simclock.NewVirtual(base.Add(2500 * time.Second))
	db, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Clock:        clock,
		Lifecycle:    LifecycleOptions{RetainMaxAge: 1000 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ingestSmallBlocks(t, db, lcRecords(2000, base), 4)

	info := db.Lifecycle()
	if info.Records != 2000 {
		t.Fatalf("info.Records = %d", info.Records)
	}
	if info.Blocks.Fragmented == 0 || info.Blocks.AvgBytes >= compactFragBytes {
		t.Fatalf("small-flush store not seen as fragmented: %+v", info.Blocks)
	}
	if info.ExpiredBytes == 0 {
		t.Fatal("age policy reports nothing expired")
	}
	if info.RetentionHorizon.IsZero() {
		t.Fatal("retention horizon missing")
	}

	if _, _, err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	info = db.Lifecycle()
	if info.Compactions == 0 && info.SegmentsRetired == 0 {
		t.Fatalf("lifecycle totals empty after Maintain: %+v", info)
	}
	if info.CompactedSegments == 0 {
		t.Fatalf("no compacted segment live after Maintain")
	}
}

// TestCompactLoneCompactedNotReselected pins the livelock guard. Compact
// groups whole source blocks up to compactBlockBytes, so its own output is
// never fragmented across several blocks; the test makes such a segment by
// renaming a sealed segment of small blocks to a compacted segment's name.
// A lone compacted segment must never be selected again: re-compacting it
// would reuse its own range-derived file name, looping under lcMu
// (deadlocking Close) or renaming the rewrite over its own source,
// unlinking the live file when the source retires.
func TestCompactLoneCompactedNotReselected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 8 << 10}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.Record
	appendBatch := func(n int, arg string) {
		t.Helper()
		batch := make([]store.Record, n)
		for i := range batch {
			at := time.Unix(0, int64(len(recs)+i))
			batch[i] = store.Record{Time: at, EndTime: at, Device: "C9", Name: "Q", Args: []string{arg}}
		}
		if err := db.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, batch...)
	}
	// Segment 0 holds small blocks, segment 1 a 40 KiB one, which no run of
	// fragmented segments crosses, and segments 2 and 3 small blocks again.
	for db.Segments() < 2 {
		appendBatch(4, "")
	}
	appendBatch(40, strings.Repeat("x", 1<<10))
	for db.Segments() < 5 {
		appendBatch(4, "")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(segmentPath(dir, 0), compactedPath(dir, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := canonical(t, collectAll(t, db))

	type result struct {
		stats CompactStats
		err   error
	}
	run := func() result {
		done := make(chan result, 1)
		go func() {
			stats, err := db.Compact()
			done <- result{stats, err}
		}()
		select {
		case r := <-done:
			return r
		case <-time.After(30 * time.Second):
			t.Fatal("Compact livelocked re-selecting its own output")
			panic("unreachable")
		}
	}
	// The first pass merges segments 2 and 3 only.
	if r := run(); r.err != nil {
		t.Fatal(r.err)
	} else if r.stats.Compactions != 1 || r.stats.SegmentsIn != 2 {
		t.Fatalf("first compaction pass: %+v, want segments 2 and 3 merged", r.stats)
	}
	db.mu.RLock()
	lone := db.segs[0]
	reached := lone.compacted && fragmented(lone) && len(lone.index.blocks) >= 2
	db.mu.RUnlock()
	if !reached {
		t.Fatal("no compacted segment of several fragmented blocks: the test no longer reaches the re-selection it guards")
	}
	// A second pass finds nothing: lone compacted survivors stay put.
	if r := run(); r.err != nil {
		t.Fatal(r.err)
	} else if r.stats.Compactions != 0 {
		t.Fatalf("lone compacted segment re-selected: %+v", r.stats)
	}
	if !bytes.Equal(want, canonical(t, collectAll(t, db))) {
		t.Fatal("records changed across compaction passes")
	}

	// Durability: nothing was renamed over a live source, so a reopen sees
	// every record.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := collectAll(t, db2); len(got) != len(recs) || !bytes.Equal(want, canonical(t, got)) {
		t.Fatal("reopened store lost records after repeated compaction")
	}
}

// TestRetainAgePrefixOnly: Record.Time is not monotonic across segments —
// a replayed campaign can land old timestamps after new ones — so age
// retention must stop at the first sealed segment inside the horizon
// rather than carving expired segments out of the middle, which would tear
// a sequence gap into the survivors.
func TestRetainAgePrefixOnly(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1_000_000, 0)
	clock := simclock.NewVirtual(base.Add(5000 * time.Second))
	db, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Clock:        clock,
		Lifecycle:    LifecycleOptions{RetainMaxAge: 2000 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// First and last thirds sit past the horizon (base+3000s); the middle
	// third is fresh. Only leading expired segments may be retired.
	recs := lcRecords(2100, base)
	for i := 700; i < 1400; i++ {
		recs[i].Time = base.Add(4000 * time.Second)
		recs[i].EndTime = recs[i].Time.Add(50 * time.Millisecond)
	}
	ingestSmallBlocks(t, db, recs, 4)

	stats, err := db.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired == 0 {
		t.Fatal("no leading expired segment retired")
	}
	after := collectAll(t, db)
	if len(after) == 0 {
		t.Fatal("retention dropped everything")
	}
	if got, want := after[len(after)-1].Seq, uint64(len(recs)-1); got != want {
		t.Fatalf("newest record lost: tail seq %d, want %d", got, want)
	}
	for i := 1; i < len(after); i++ {
		if after[i].Seq != after[i-1].Seq+1 {
			t.Fatalf("age retention tore a seq gap: %d -> %d", after[i-1].Seq, after[i].Seq)
		}
	}
}

// TestRetainPersistsSeqFloor: retention that retires every record-bearing
// segment while the active segment is empty (its tail was torn and
// truncated on a prior open) must not let sequence numbering restart at
// zero on reopen — the floor persisted at retirement time keeps seqs
// strictly increasing across the store's whole history.
func TestRetainPersistsSeqFloor(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(1_000_000, 0)
	db, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ingestSmallBlocks(t, db, lcRecords(1000, base), 4)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the active segment down to its bare header: its records are
	// lost, so recovery's max surviving seq undershoots the true maximum.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	activePath := ""
	maxID := -1
	for _, e := range entries {
		if lo, _, compacted, ok := parseSegmentName(e.Name()); ok && !compacted && lo > maxID {
			maxID, activePath = lo, filepath.Join(dir, e.Name())
		}
	}
	if err := os.Truncate(activePath, int64(len(segMagic))); err != nil {
		t.Fatal(err)
	}

	clock := simclock.NewVirtual(base.Add(1_000_000 * time.Second))
	db2, err := Open(dir, Options{
		SegmentBytes: 16 << 10,
		Clock:        clock,
		Lifecycle:    LifecycleOptions{RetainMaxAge: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	surviving := collectAll(t, db2)
	if len(surviving) == 0 {
		t.Fatal("truncation left nothing to retire")
	}
	wantSeq := surviving[len(surviving)-1].Seq + 1
	stats, err := db2.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsDropped != len(surviving) {
		t.Fatalf("retention dropped %d of %d records", stats.RecordsDropped, len(surviving))
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if err := db3.AppendBatch(lcRecords(1, base.Add(2_000_000*time.Second))); err != nil {
		t.Fatal(err)
	}
	got := collectAll(t, db3)
	if len(got) != 1 || got[0].Seq != wantSeq {
		t.Fatalf("post-retention reopen assigned seq %d (%d records), want %d",
			got[0].Seq, len(got), wantSeq)
	}
}

// TestLifecycleInfoByteBudgetSealedOnly: the byte-policy reclaim estimate
// mirrors Retain, which only ever retires sealed segments — a store whose
// budget overage lives entirely in the active segment has nothing
// reclaimable, and -mode info must say so.
func TestLifecycleInfoByteBudgetSealedOnly(t *testing.T) {
	db, err := Open(t.TempDir(), Options{
		Lifecycle: LifecycleOptions{RetainMaxBytes: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Default 4MB rotation: everything lands in the single active segment.
	ingestSmallBlocks(t, db, lcRecords(500, time.Unix(1000, 0)), 10)
	if db.Segments() != 1 {
		t.Fatalf("expected a single active segment, have %d", db.Segments())
	}
	info := db.Lifecycle()
	if info.LiveBytes <= 1024 {
		t.Fatalf("store under budget: %d bytes", info.LiveBytes)
	}
	if info.ExpiredBytes != 0 {
		t.Fatalf("ExpiredBytes = %d counts the untouchable active segment", info.ExpiredBytes)
	}
	stats, err := db.Retain()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired != 0 {
		t.Fatalf("retention touched the active segment: %+v", stats)
	}
}

func TestParseSegmentName(t *testing.T) {
	cases := []struct {
		name      string
		lo, hi    int
		compacted bool
		ok        bool
	}{
		{"seg-00000000.seg", 0, 0, false, true},
		{"seg-00000042.seg", 42, 42, false, true},
		{"seg-00000003-00000007.seg", 3, 7, true, true},
		{"seg-00000005-00000005.seg", 5, 5, true, true},
		{"seg-00000007-00000003.seg", 0, 0, false, false}, // inverted range
		{"seg-42.seg", 0, 0, false, false},
		{"seg-00000001.seg.tmp", 0, 0, false, false},
		{"seg-00000003-00000007.seg.tmp", 0, 0, false, false},
		{"other.txt", 0, 0, false, false},
	}
	for _, c := range cases {
		lo, hi, compacted, ok := parseSegmentName(c.name)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi || compacted != c.compacted)) {
			t.Errorf("parseSegmentName(%q) = (%d,%d,%v,%v), want (%d,%d,%v,%v)",
				c.name, lo, hi, compacted, ok, c.lo, c.hi, c.compacted, c.ok)
		}
	}
}
