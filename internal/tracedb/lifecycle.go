package tracedb

import (
	"slices"
	"sync/atomic"
	"time"
)

// LifecycleOptions configures the storage lifecycle engine: background
// compaction of fragmented segments and retention of old data. The zero
// value disables everything — the store stays append-only, exactly the
// pre-lifecycle behavior.
type LifecycleOptions struct {
	// Interval is the cadence of the background maintenance loop
	// (retention, then compaction). Zero disables the loop; Compact and
	// Retain can still be called manually (radquery -mode compact). The
	// loop ticks on wall time regardless of Options.Clock; retention's age
	// horizon uses Options.Clock, so virtual-clock campaigns age out
	// virtually.
	Interval time.Duration
	// RetainMaxAge retires whole sealed segments whose newest record is
	// older than this relative to Options.Clock.Now(). Zero keeps
	// everything.
	RetainMaxAge time.Duration
	// RetainMaxBytes retires the oldest sealed segments while the store's
	// committed bytes exceed this. Zero is unlimited.
	RetainMaxBytes int64
}

// compactBlockBytes is the payload size the compactor re-batches records
// into. Larger blocks amortize per-block overhead (header, CRC, read
// syscall, index entry) but coarsen the posting lists and time index — a
// block is the unit of pruning, so a very large block almost always
// contains any given command type and selective queries degrade toward full
// scans. 64 KiB is dense enough to collapse small-flush debris by orders of
// magnitude while keeping rare-key and time-window pruning effective.
const compactBlockBytes = 64 << 10

// compactFragBytes marks a sealed segment fragmented — a compaction source
// — when its average block payload is below it: a quarter of the compacted
// block size, which the compactor's blocks of ordinary records exceed.
// Blocks of near-empty records can stay under it, so compactOnce never
// re-selects a lone compacted segment either way.
const compactFragBytes = compactBlockBytes / 4

// lifecycleStats are the always-maintained lifecycle and planner counters;
// Observe exposes them, and Lifecycle()/radquery -mode info read them
// directly.
type lifecycleStats struct {
	compactions     atomic.Uint64
	blocksMerged    atomic.Uint64 // source blocks consumed by compaction
	bytesReclaimed  atomic.Uint64 // committed bytes freed by compaction + retention
	segmentsRetired atomic.Uint64
	recordsDropped  atomic.Uint64 // records dropped by retention

	plannerDevice atomic.Uint64
	plannerKey    atomic.Uint64
	plannerRun    atomic.Uint64
	plannerProc   atomic.Uint64
	plannerScan   atomic.Uint64
}

// plannerPick counts one per-segment driving-list choice.
func (st *lifecycleStats) plannerPick(field string) {
	switch field {
	case "device":
		st.plannerDevice.Add(1)
	case "key":
		st.plannerKey.Add(1)
	case "run":
		st.plannerRun.Add(1)
	case "procedure":
		st.plannerProc.Add(1)
	default:
		st.plannerScan.Add(1)
	}
}

// RetainStats summarizes one Retain pass.
type RetainStats struct {
	SegmentsRetired int
	RecordsDropped  int
	BytesReclaimed  int64
	// Horizon is the age cut-off applied (zero when no age policy is set).
	Horizon time.Time
}

// Retain applies the configured retention policies: the leading run of
// sealed segments whose newest record is older than RetainMaxAge is
// retired whole, then the oldest sealed segments are retired while the
// committed bytes exceed RetainMaxBytes. The active segment is never
// touched, deletion is whole-segment only (no partial rewrites), survivors
// are always a contiguous sequence suffix, and retired files are unlinked
// only after the last in-flight snapshot drains — a concurrent
// snapshot-then-follow tail keeps reading the files it planned. The
// maximum retired sequence number is durably recorded (see persistSeqFloor)
// before any segment is dropped, so numbering never regresses on reopen.
func (db *DB) Retain() (RetainStats, error) {
	db.lcMu.Lock()
	defer db.lcMu.Unlock()
	var stats RetainStats
	pol := db.opts.Lifecycle
	if pol.RetainMaxAge <= 0 && pol.RetainMaxBytes <= 0 {
		return stats, nil
	}
	var horizonN int64
	if pol.RetainMaxAge > 0 {
		stats.Horizon = db.clock.Now().Add(-pol.RetainMaxAge)
		horizonN = stats.Horizon.UnixNano()
	}

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return stats, ErrClosed
	}
	victims := db.segs[:db.retainedLocked(horizonN)]
	if len(victims) == 0 {
		db.mu.Unlock()
		return stats, nil
	}
	// Persist the sequence floor before the victims disappear: if retention
	// retires every record-bearing segment while the active segment is
	// empty, a reopen would otherwise restart numbering at zero, and a
	// seq-keyed consumer, such as stream.ResilientTail's resume cursor,
	// would misclassify fresh records as already seen.
	floor := db.seqFloor
	for _, s := range victims {
		if s.index.count > 0 && s.index.maxSeq+1 > floor {
			floor = s.index.maxSeq + 1
		}
	}
	if floor > db.seqFloor {
		if err := persistSeqFloor(db.dir, floor); err != nil {
			db.mu.Unlock()
			return stats, err
		}
		db.seqFloor = floor
	}
	for _, s := range victims {
		stats.SegmentsRetired++
		stats.RecordsDropped += s.index.count
		stats.BytesReclaimed += s.size
		s.retired.Store(true)
		db.retired = append(db.retired, s)
	}
	db.segs = slices.Clone(db.segs[len(victims):])
	db.pruneRetiredLocked()
	db.mu.Unlock()

	for _, s := range victims {
		s.release() // drop the DB's ownership reference
	}
	db.lcStats.segmentsRetired.Add(uint64(stats.SegmentsRetired))
	db.lcStats.recordsDropped.Add(uint64(stats.RecordsDropped))
	db.lcStats.bytesReclaimed.Add(uint64(stats.BytesReclaimed))
	return stats, nil
}

// retainedLocked returns how many of the oldest segments the retention
// policy retires now, all of them sealed: first the leading run whose
// newest record is older than horizonN (with an age policy), then, while
// the committed bytes left exceed RetainMaxBytes, the oldest left. Age
// retirement takes only a prefix: Record.Time need not be monotonic across
// segments, and carving an expired segment out of the middle would tear a
// hole in the sequence order, breaking the gap-free survivor guarantee.
// Empty sealed segments hold no records, so reclaiming them within the
// prefix can never create a gap. The active segment is never retired.
// Caller holds db.mu.
func (db *DB) retainedLocked(horizonN int64) int {
	pol := db.opts.Lifecycle
	sealed := len(db.segs) - 1
	n := 0
	if pol.RetainMaxAge > 0 {
		for ; n < sealed; n++ {
			if s := db.segs[n]; s.index.count > 0 {
				if _, maxN := s.index.timeSpan(); maxN >= horizonN {
					break
				}
			}
		}
	}
	if pol.RetainMaxBytes > 0 {
		var total int64
		for _, s := range db.segs[n:] {
			total += s.size
		}
		for ; n < sealed && total > pol.RetainMaxBytes; n++ {
			total -= db.segs[n].size
		}
	}
	return n
}

// Maintain runs one full lifecycle pass — retention first (freeing bytes),
// then compaction (densifying what remains) — and is what the background
// loop executes each tick.
func (db *DB) Maintain() (RetainStats, CompactStats, error) {
	rs, err := db.Retain()
	if err != nil {
		return rs, CompactStats{}, err
	}
	cs, err := db.Compact()
	return rs, cs, err
}

// lifecycleLoop is the background maintenance goroutine, started by Open
// when Lifecycle.Interval > 0 and stopped by Close.
func (db *DB) lifecycleLoop() {
	defer close(db.lcDone)
	t := time.NewTicker(db.opts.Lifecycle.Interval)
	defer t.Stop()
	for {
		select {
		case <-db.lcStop:
			return
		case <-t.C:
			if _, _, err := db.Maintain(); err != nil {
				if err == ErrClosed {
					return
				}
				// Maintenance is advisory: an IO error leaves the store
				// exactly as durable as before the pass; retry next tick.
			}
		}
	}
}

// stopLifecycle halts the background loop, if one is running; safe to call
// more than once.
func (db *DB) stopLifecycle() {
	db.lcOnce.Do(func() {
		if db.lcStop != nil {
			close(db.lcStop)
			<-db.lcDone
		}
	})
}

// BlockSizeSummary condenses the store's block payload-size distribution.
type BlockSizeSummary struct {
	Blocks     int
	MinBytes   int64
	AvgBytes   int64
	MaxBytes   int64
	Fragmented int // blocks with payload below the fragmentation threshold
}

// LifecycleInfo is the storage-lifecycle state radquery -mode info reports.
type LifecycleInfo struct {
	Segments          int
	CompactedSegments int // current segments produced by the compactor
	Records           int // committed records (staged appends excluded)
	LiveBytes         int64
	// RetiredBytes are bytes in segments already retired but still pinned
	// by in-flight snapshots; ExpiredBytes are bytes the current retention
	// policy would reclaim on the next pass.
	RetiredBytes int64
	ExpiredBytes int64
	Blocks       BlockSizeSummary
	// RetentionHorizon is the current age cut-off (zero without an age
	// policy).
	RetentionHorizon time.Time
	// Totals over the store's lifetime (process lifetime — counters reset
	// on Open).
	Compactions     uint64
	BlocksMerged    uint64
	BytesReclaimed  uint64
	SegmentsRetired uint64
	RecordsDropped  uint64
}

// Lifecycle reports the store's lifecycle state: live versus reclaimable
// bytes, the block-size distribution, the retention horizon, and the
// engine's lifetime totals.
func (db *DB) Lifecycle() LifecycleInfo {
	pol := db.opts.Lifecycle
	var info LifecycleInfo
	var horizonN int64
	if pol.RetainMaxAge > 0 {
		info.RetentionHorizon = db.clock.Now().Add(-pol.RetainMaxAge)
		horizonN = info.RetentionHorizon.UnixNano()
	}

	db.mu.RLock()
	info.Segments = len(db.segs)
	var payloadSum int64
	for _, s := range db.segs {
		if s.compacted {
			info.CompactedSegments++
		}
		info.Records += s.index.count
		info.LiveBytes += s.size
		payloadSum += s.index.payload
		for i := range s.index.blocks {
			p := int64(s.index.blocks[i].payloadLen)
			if info.Blocks.Blocks == 0 || p < info.Blocks.MinBytes {
				info.Blocks.MinBytes = p
			}
			if p > info.Blocks.MaxBytes {
				info.Blocks.MaxBytes = p
			}
			if p < compactFragBytes {
				info.Blocks.Fragmented++
			}
			info.Blocks.Blocks++
		}
	}
	for _, s := range db.segs[:db.retainedLocked(horizonN)] {
		info.ExpiredBytes += s.size
	}
	for _, s := range db.retired {
		if s.refs.Load() > 0 {
			info.RetiredBytes += s.size
		}
	}
	db.mu.RUnlock()
	if info.Blocks.Blocks > 0 {
		info.Blocks.AvgBytes = payloadSum / int64(info.Blocks.Blocks)
	}
	info.Compactions = db.lcStats.compactions.Load()
	info.BlocksMerged = db.lcStats.blocksMerged.Load()
	info.BytesReclaimed = db.lcStats.bytesReclaimed.Load()
	info.SegmentsRetired = db.lcStats.segmentsRetired.Load()
	info.RecordsDropped = db.lcStats.recordsDropped.Load()
	return info
}
