package tracedb

import (
	"fmt"
	"os"

	"rad/internal/store"
)

// CompactStats summarizes one Compact call (which may run several merge
// steps until no candidate run remains).
type CompactStats struct {
	Compactions int // merge steps executed
	SegmentsIn  int // source segments consumed
	SegmentsOut int // compacted segments produced (one per step)
	BlocksIn    int
	BlocksOut   int
	Records     int
	BytesIn     int64 // committed file bytes consumed
	BytesOut    int64 // committed file bytes produced
}

// compactHook, when non-nil, is invoked at the compactor's crash-window
// boundaries ("temp-written": output fsynced, rename pending; "renamed":
// output durable under its final name, in-memory swap pending). A non-nil
// error aborts the step with no cleanup — exactly the state a crash at that
// point leaves on disk — so the recovery tests can exercise both windows.
var compactHook func(stage string) error

// Compact merges runs of fragmented sealed segments — segments whose
// average block payload is far below the target block size, the debris of
// a chatty writer's small blocks (DefaultBlockRecords appends each, or
// fewer on Flush) — into dense, freshly indexed segments. It runs
// concurrently with the writer and with readers: sources are immutable
// while compaction reads them, the rewritten segment is swapped in under
// the write lock (copy-on-write), and retired source files are unlinked
// only once the last in-flight snapshot drains.
//
// Crash safety: the output is written and fsynced under a .tmp name, then
// renamed into place. A crash before the rename leaves only the temp file,
// which Open deletes; a crash after it leaves the compacted file alongside
// its sources, and Open discards the sources as covered duplicates.
func (db *DB) Compact() (CompactStats, error) {
	db.lcMu.Lock()
	defer db.lcMu.Unlock()
	var stats CompactStats
	for {
		step, ok, err := db.compactOnce()
		if err != nil {
			return stats, err
		}
		if !ok {
			// Sources with no snapshot in flight drained during the loop;
			// drop them from the retired bookkeeping now.
			db.mu.Lock()
			db.pruneRetiredLocked()
			db.mu.Unlock()
			return stats, nil
		}
		stats.Compactions++
		stats.SegmentsIn += step.SegmentsIn
		stats.SegmentsOut++
		stats.BlocksIn += step.BlocksIn
		stats.BlocksOut += step.BlocksOut
		stats.Records += step.Records
		stats.BytesIn += step.BytesIn
		stats.BytesOut += step.BytesOut
	}
}

// fragmented reports whether a sealed segment is a compaction source: it
// holds records and its average block payload is below the fragmentation
// threshold.
func fragmented(s *segment) bool {
	blocks := int64(len(s.index.blocks))
	return s.index.count > 0 && blocks > 0 && s.index.payload/blocks < compactFragBytes
}

// compactOnce selects and merges one run of fragmented segments. ok is
// false when no candidate run exists.
func (db *DB) compactOnce() (stats CompactStats, ok bool, err error) {
	// Select the first maximal run of consecutive fragmented sealed
	// segments whose combined payload fits one output segment, and pin the
	// sources with snapshot references so retention in another process
	// cycle cannot unlink them mid-read. Compacted segments are archival —
	// they take no further writes — so they pack denser than live write
	// segments: up to four write-segments' payload per output file, which
	// is what lets a run of full-but-fragmented segments collapse into
	// fewer files rather than being rewritten one-for-one.
	maxPayload := 4 * db.opts.SegmentBytes
	var srcs []*segment
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return stats, false, ErrClosed
	}
	sealed := db.segs[:len(db.segs)-1]
	for i := 0; i < len(sealed) && srcs == nil; i++ {
		if !fragmented(sealed[i]) {
			continue
		}
		var run []*segment
		var payload int64
		blocksIn := 0
		for j := i; j < len(sealed); j++ {
			s := sealed[j]
			if !fragmented(s) {
				break
			}
			if len(run) > 0 && payload+s.index.payload > maxPayload {
				break
			}
			run = append(run, s)
			payload += s.index.payload
			blocksIn += len(s.index.blocks)
		}
		// A run earns a rewrite when it merges files, or — for a lone
		// plain segment — when re-blocking likely reduces the block count.
		// A lone compacted segment is never re-selected: its blocks already
		// group whole stored blocks up to compactBlockBytes, so a rewrite
		// would keep its block count, or nearly, and its range-derived file
		// name — re-selecting it would livelock the maintenance loop and
		// rename the rewrite over its own source.
		estOut := int(payload/compactBlockBytes) + 1
		if len(run) >= 2 || (!run[0].compacted && blocksIn > estOut) {
			srcs = run
		} else {
			i += len(run) - 1
		}
	}
	if srcs == nil {
		db.mu.RUnlock()
		return stats, false, nil
	}
	for _, s := range srcs {
		s.acquire()
	}
	db.mu.RUnlock()
	defer func() {
		for _, s := range srcs {
			s.release()
		}
	}()

	// Read every source block (sources are sealed, so no lock is needed)
	// and rewrite the records under a temp name, rebuilding tight posting
	// lists and time bounds as we go. Each output block holds whole source
	// blocks, as many in a row as fit compactBlockBytes by their stored
	// payload lengths: their records re-encode byte for byte behind one
	// count, so the block is no larger than the payloads it merges.
	lo, hi := srcs[0].id, srcs[len(srcs)-1].hi
	finalPath := compactedPath(db.dir, lo, hi)
	for _, s := range srcs {
		if s.path == finalPath {
			// Impossible by selection (only a multi-segment run can start
			// with a compacted segment, and then hi exceeds its range), but
			// renaming the output over a live source would unlink the fresh
			// data when the source retires — refuse outright.
			return stats, false, fmt.Errorf("tracedb: compaction output %s would overwrite its own source", finalPath)
		}
	}
	tmpPath := finalPath + tmpSuffix
	out, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return stats, false, fmt.Errorf("tracedb: create compaction temp: %w", err)
	}
	cleanup := func(e error) (CompactStats, bool, error) {
		out.Close()
		os.Remove(tmpPath)
		return stats, false, e
	}
	if _, err := out.WriteAt([]byte(segMagic), 0); err != nil {
		return cleanup(fmt.Errorf("tracedb: write compaction header: %w", err))
	}
	ns := &segment{id: lo, hi: hi, path: finalPath, f: out, compacted: true,
		size: int64(len(segMagic)), index: newSegmentIndex()}
	ns.refs.Store(1)

	var batch []store.Record
	var batchBytes int64
	var encBuf []byte
	var tally blockTally
	flushBatch := func() error {
		if len(batch) > 0 {
			blocks, err := ns.appendBlocks(&tally, &encBuf, batch, 0, false)
			if err != nil {
				return err
			}
			stats.BlocksOut += blocks
			stats.Records += len(batch)
		}
		batch, batchBytes = batch[:0], 0
		return nil
	}
	var buf *[]byte
	var br store.BlockReader
	for _, s := range srcs {
		stats.SegmentsIn++
		stats.BlocksIn += len(s.index.blocks)
		stats.BytesIn += s.size
		for _, m := range s.index.blocks {
			if batchBytes+int64(m.payloadLen) > compactBlockBytes {
				if err := flushBatch(); err != nil {
					return cleanup(err)
				}
			}
			var err error
			buf = store.GrowBlockBuf(buf, int(m.payloadLen))
			if batch, err = s.readBlock(m, *buf, &br, batch, nil); err != nil {
				return cleanup(fmt.Errorf("tracedb: compaction read: %w", err))
			}
			batchBytes += int64(m.payloadLen)
		}
	}
	store.PutBlockBuf(buf) // no decoded record aliases it
	if err := flushBatch(); err != nil {
		return cleanup(err)
	}
	if err := out.Sync(); err != nil {
		return cleanup(fmt.Errorf("tracedb: sync compaction temp: %w", err))
	}
	stats.BytesOut = ns.size

	if compactHook != nil {
		if err := compactHook("temp-written"); err != nil {
			return stats, false, err // simulated crash: leave the temp file
		}
	}
	if err := os.Rename(tmpPath, finalPath); err != nil {
		return cleanup(fmt.Errorf("tracedb: install compacted segment: %w", err))
	}
	store.SyncDir(db.dir)
	if compactHook != nil {
		if err := compactHook("renamed"); err != nil {
			return stats, false, err // simulated crash: sources still live
		}
	}

	// Swap: splice the compacted segment in place of its sources under the
	// write lock, then retire the sources. Readers planned before the swap
	// keep their references; new plans see only the compacted segment.
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		out.Close()
		// The renamed file is durable and consistent; the next Open adopts
		// it and discards the covered sources.
		return stats, false, ErrClosed
	}
	i0 := -1
	for i, s := range db.segs {
		if s == srcs[0] {
			i0 = i
			break
		}
	}
	if i0 < 0 || i0+len(srcs) > len(db.segs) {
		db.mu.Unlock()
		return cleanup(fmt.Errorf("tracedb: compaction sources vanished"))
	}
	for i, s := range srcs {
		if db.segs[i0+i] != s {
			db.mu.Unlock()
			return cleanup(fmt.Errorf("tracedb: compaction sources reordered"))
		}
	}
	segs := make([]*segment, 0, len(db.segs)-len(srcs)+1)
	segs = append(segs, db.segs[:i0]...)
	segs = append(segs, ns)
	segs = append(segs, db.segs[i0+len(srcs):]...)
	db.segs = segs
	for _, s := range srcs {
		s.retired.Store(true)
		db.retired = append(db.retired, s)
	}
	db.pruneRetiredLocked()
	db.mu.Unlock()

	// Drop the DB's ownership reference on each source (the deferred
	// release drops the selection reference); the files unlink once the
	// last in-flight snapshot drains.
	for _, s := range srcs {
		s.release()
	}

	db.lcStats.compactions.Add(1)
	db.lcStats.blocksMerged.Add(uint64(stats.BlocksIn))
	db.lcStats.segmentsRetired.Add(uint64(stats.SegmentsIn))
	if d := stats.BytesIn - stats.BytesOut; d > 0 {
		db.lcStats.bytesReclaimed.Add(uint64(d))
	}
	return stats, true, nil
}

// pruneRetiredLocked drops drained entries from the retired list so a
// long-lived store does not accumulate bookkeeping. Caller holds db.mu.
func (db *DB) pruneRetiredLocked() {
	k := 0
	for _, s := range db.retired {
		if s.refs.Load() > 0 {
			db.retired[k] = s
			k++
		}
	}
	db.retired = db.retired[:k]
}
