package tracedb

import (
	"sync/atomic"

	"rad/internal/obs"
)

// dbObs is the DB's observability state: the write-path histograms plus
// the block-write totals. It is built once by Observe; a nil dbObs (the
// default) keeps every metric branch to one pointer check.
type dbObs struct {
	appendRecord  *obs.Histogram // Append end-to-end, lock held
	appendBatch   *obs.Histogram // AppendBatch end-to-end, lock held
	flush         *obs.Histogram // staged-block encode+write
	blocksWritten atomic.Uint64
	bytesWritten  atomic.Uint64
}

// Observe registers the store's metrics into reg and arms the write-path
// timing histograms. Timings use Options.Clock (the real clock unless a
// campaign injected its virtual one), so observed virtual-clock campaigns
// stay deterministic. Size and occupancy metrics are pull-based: they read
// the store under its read lock only when the registry renders.
//
// Call once, before serving writes; the write path reads the installed
// state without further synchronization.
func (db *DB) Observe(reg *obs.Registry) {
	o := &dbObs{}
	reg.SetHelp("rad_tracedb_append_seconds", "Sink append latency (lock acquisition excluded), by append shape.")
	o.appendRecord = reg.Histogram("rad_tracedb_append_seconds", nil, "op", "record")
	o.appendBatch = reg.Histogram("rad_tracedb_append_seconds", nil, "op", "batch")
	reg.SetHelp("rad_tracedb_flush_seconds", "Time to encode and write one staged block.")
	o.flush = reg.Histogram("rad_tracedb_flush_seconds", nil)

	reg.SetHelp("rad_tracedb_blocks_written_total", "Blocks committed to segment files.")
	reg.CounterFunc("rad_tracedb_blocks_written_total", o.blocksWritten.Load)
	reg.SetHelp("rad_tracedb_bytes_written_total", "Bytes committed to segment files, framing included.")
	reg.CounterFunc("rad_tracedb_bytes_written_total", o.bytesWritten.Load)

	reg.SetHelp("rad_tracedb_recovery_seconds", "Time Open spent scanning and CRC-verifying existing segments.")
	reg.GaugeFunc("rad_tracedb_recovery_seconds", func() float64 { return db.recovery.Seconds() })
	reg.SetHelp("rad_tracedb_segments", "On-disk segment files.")
	reg.GaugeFunc("rad_tracedb_segments", func() float64 { return float64(db.Segments()) })
	reg.SetHelp("rad_tracedb_records", "Records in the store, staged appends included.")
	reg.GaugeFunc("rad_tracedb_records", func() float64 { return float64(db.Len()) })
	reg.SetHelp("rad_tracedb_bytes", "Committed segment bytes across all segments.")
	reg.GaugeFunc("rad_tracedb_bytes", func() float64 { return float64(db.sizeBytes()) })
	reg.SetHelp("rad_tracedb_index_blocks", "Block-index entries across all segments.")
	reg.GaugeFunc("rad_tracedb_index_blocks", func() float64 { return float64(db.indexBlocks()) })
	reg.SetHelp("rad_tracedb_pending_records", "Staged per-record appends awaiting their block flush.")
	reg.GaugeFunc("rad_tracedb_pending_records", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(len(db.pending))
	})

	// Lifecycle engine and query planner: the counters live on the DB (they
	// back radquery -mode info too); the registry just exposes them.
	reg.SetHelp("rad_tracedb_compactions_total", "Compaction merge steps completed.")
	reg.CounterFunc("rad_tracedb_compactions_total", db.lcStats.compactions.Load)
	reg.SetHelp("rad_tracedb_compact_blocks_merged_total", "Source blocks consumed by compaction.")
	reg.CounterFunc("rad_tracedb_compact_blocks_merged_total", db.lcStats.blocksMerged.Load)
	reg.SetHelp("rad_tracedb_lifecycle_bytes_reclaimed_total", "Committed bytes freed by compaction and retention.")
	reg.CounterFunc("rad_tracedb_lifecycle_bytes_reclaimed_total", db.lcStats.bytesReclaimed.Load)
	reg.SetHelp("rad_tracedb_segments_retired_total", "Segments retired by compaction and retention.")
	reg.CounterFunc("rad_tracedb_segments_retired_total", db.lcStats.segmentsRetired.Load)
	reg.SetHelp("rad_tracedb_retain_records_dropped_total", "Records dropped by retention.")
	reg.CounterFunc("rad_tracedb_retain_records_dropped_total", db.lcStats.recordsDropped.Load)
	reg.SetHelp("rad_tracedb_planner_driver_total", "Per-segment driving-list choices by the query planner.")
	reg.CounterFunc("rad_tracedb_planner_driver_total", db.lcStats.plannerDevice.Load, "field", "device")
	reg.CounterFunc("rad_tracedb_planner_driver_total", db.lcStats.plannerKey.Load, "field", "key")
	reg.CounterFunc("rad_tracedb_planner_driver_total", db.lcStats.plannerRun.Load, "field", "run")
	reg.CounterFunc("rad_tracedb_planner_driver_total", db.lcStats.plannerProc.Load, "field", "procedure")
	reg.CounterFunc("rad_tracedb_planner_driver_total", db.lcStats.plannerScan.Load, "field", "scan")

	db.mu.Lock()
	db.obs = o
	db.mu.Unlock()
}

// sizeBytes sums the committed bytes across segments.
func (db *DB) sizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int64
	for _, s := range db.segs {
		n += s.size
	}
	return n
}

// indexBlocks counts the block-index entries across segments.
func (db *DB) indexBlocks() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, s := range db.segs {
		n += len(s.index.blocks)
	}
	return n
}
