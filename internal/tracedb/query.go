package tracedb

import (
	"math"
	"sort"
	"time"

	"rad/internal/store"
)

// Query selects records. The zero value matches everything; every set field
// must match (conjunction). Time bounds are inclusive on both ends and
// compare against Record.Time; a zero From or To leaves that end unbounded.
// These are exactly the query shapes the analyses consume: time-range,
// per-device, per-command-type, and per-procedure/per-run slices.
type Query struct {
	From, To  time.Time
	Device    string
	Key       string // command type, Record.Key() = "Device.Name"
	Procedure string
	Run       string
	// MinSeq restricts the result to records with Seq >= MinSeq — the
	// resume predicate of a reconnecting tail (stream.Server replays
	// [MinSeq, now) from the store). Zero (sequence numbers start at zero)
	// excludes nothing, keeping the zero Query's match-everything contract.
	MinSeq uint64
}

// Match reports whether r satisfies the query — the same predicate the
// indexed scan applies, exported so in-memory stores can run the identical
// filter (the query-parity contract with store.MemStore).
func (q Query) Match(r store.Record) bool {
	if r.Seq < q.MinSeq {
		return false
	}
	if q.Device != "" && r.Device != q.Device {
		return false
	}
	if q.Key != "" && r.Key() != q.Key {
		return false
	}
	if q.Procedure != "" && r.Procedure != q.Procedure {
		return false
	}
	if q.Run != "" && r.Run != q.Run {
		return false
	}
	if !q.From.IsZero() && r.Time.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && r.Time.After(q.To) {
		return false
	}
	return true
}

// timeBounds returns the query's time window in UnixNano with open ends
// widened to the full int64 range, for block pruning.
func (q Query) timeBounds() (fromN, toN int64) {
	fromN, toN = math.MinInt64, math.MaxInt64
	if !q.From.IsZero() {
		fromN = q.From.UnixNano()
	}
	if !q.To.IsZero() {
		toN = q.To.UnixNano()
	}
	return fromN, toN
}

// segPlan is one segment's share of a snapshot scan plan: the candidate
// blocks selected by the planner at snapshot time, with a coverage flag per
// block marking the ones whose records all provably match (no per-record
// re-filter needed), and what the planner weighed to select them. A plan
// kept for a scan holds a reference on its segment so a retiring
// compaction or retention pass cannot unlink the file underneath the scan.
type segPlan struct {
	seg     *segment
	blocks  []blockMeta
	covered []bool
	// lists are q's posting lists in the segment, most selective first;
	// nil when a filter value is absent from it. driver is the driving
	// field: "scan" when no set filter applies, "" when the segment is
	// pruned wholesale.
	lists  []fieldList
	driver string
}

// planSegment runs the selectivity planner over one segment's index:
// posting lists of the set filters are ordered by length (shortest — most
// selective — first), the shortest list drives the scan, the remaining
// lists are intersected away block-granular, the sparse time index prunes
// what survives, and the residual per-record predicates are left to the
// block scan — skipped entirely for blocks whose metadata proves full
// coverage.
func planSegment(s *segment, q Query, fromN, toN int64) (p segPlan) {
	ix := &s.index
	p.seg = s
	lists, ok := ix.postingLists(q)
	if !ok {
		return p
	}
	p.lists = lists
	if q.MinSeq > 0 && ix.maxSeq < q.MinSeq {
		// Sequence numbers are monotone across the store, so a resume scan
		// prunes every segment sealed before the resume point wholesale.
		return p
	}
	emit := func(bi int32) {
		m := ix.blocks[bi]
		if m.maxTimeN < fromN || m.minTimeN > toN {
			return
		}
		if m.maxSeq < q.MinSeq {
			return
		}
		p.blocks = append(p.blocks, m)
		p.covered = append(p.covered, m.covers(q, fromN, toN))
	}
	if len(lists) == 0 {
		p.driver = "scan"
		for bi := range ix.blocks {
			emit(int32(bi))
		}
		return p
	}
	p.driver = lists[0].field
	ids := lists[0].list
	for _, l := range lists[1:] {
		if ids = intersect(ids, l.list); len(ids) == 0 {
			return p
		}
	}
	for _, bi := range ids {
		emit(bi)
	}
	return p
}

// planLocked runs planSegment over every segment holding records, handing
// each plan to visit, and returns the staged records q matches. The caller
// holds db.mu.
func (db *DB) planLocked(q Query, visit func(segPlan)) (tail []store.Record) {
	fromN, toN := q.timeBounds()
	for _, s := range db.segs {
		if s.index.count > 0 {
			visit(planSegment(s, q, fromN, toN))
		}
	}
	for i := range db.pending {
		if q.Match(db.pending[i]) {
			tail = append(tail, db.pending[i])
		}
	}
	return tail
}

// plan snapshots the scan state for q under the read lock: per-segment
// candidate blocks plus the matching staged records, and the seq floor.
// Blocks committed after the snapshot are not seen — iterators read a
// consistent prefix even while ingest continues. attach, when not nil, runs
// under the same read lock. Every planned segment is acquired; the caller
// must release the plans (Iterator does so on exhaustion or Close).
func (db *DB) plan(q Query, attach func()) (plans []segPlan, tail []store.Record, floor uint64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if attach != nil {
		attach()
	}
	tail = db.planLocked(q, func(p segPlan) {
		if p.driver != "" {
			db.lcStats.plannerPick(p.driver)
		}
		if len(p.blocks) > 0 {
			p.seg.acquire()
			plans = append(plans, p)
		}
	})
	return plans, tail, db.seqFloor
}

// releasePlans drops the snapshot references a plan holds.
func releasePlans(plans []segPlan) {
	for i := range plans {
		plans[i].seg.release()
	}
}

// QueryPlan is the planner's explanation of how a query executes against
// the current store state — the radquery -explain surface. Counts aggregate
// over every segment.
type QueryPlan struct {
	// Segments holding records, and how many the planner eliminated
	// wholesale (a filter value absent from the segment, or every candidate
	// block time-pruned).
	Segments       int
	SegmentsPruned int
	// Drivers counts segments by their driving choice: the most selective
	// posting-list field ("device", "key", "run", "procedure") or "scan"
	// when the query carries no set filter.
	Drivers map[string]int
	// FilterBlocks sums, per filter field, the posting-list lengths the
	// planner weighed — the selectivity estimates.
	FilterBlocks map[string]int
	// TotalBlocks is the store's block count; CandidateBlocks is what the
	// scan will actually read; CoveredBlocks of those are provably
	// all-matching, so their per-record re-filter is skipped.
	TotalBlocks     int
	CandidateBlocks int
	CoveredBlocks   int
	// CandidateRecords upper-bounds the scan's result set; StagedTail is
	// the matching staged (not yet flushed) records.
	CandidateRecords int
	StagedTail       int
}

// Explain runs the planner for q without reading any block and reports what
// a Scan would do: driver choices, selectivity estimates, and candidate
// versus covered block counts.
func (db *DB) Explain(q Query) QueryPlan {
	pl := QueryPlan{Drivers: make(map[string]int), FilterBlocks: make(map[string]int)}
	db.mu.RLock()
	defer db.mu.RUnlock()
	pl.StagedTail = len(db.planLocked(q, func(p segPlan) {
		pl.Segments++
		pl.TotalBlocks += len(p.seg.index.blocks)
		for _, l := range p.lists {
			pl.FilterBlocks[l.field] += len(l.list)
		}
		if len(p.blocks) == 0 {
			pl.SegmentsPruned++
			return
		}
		pl.Drivers[p.driver]++
		pl.CandidateBlocks += len(p.blocks)
		for i := range p.blocks {
			pl.CandidateRecords += int(p.blocks[i].count)
			if p.covered[i] {
				pl.CoveredBlocks++
			}
		}
	}))
	return pl
}

// Iterator streams the records matching a query in sequence order. It is
// not safe for concurrent use, but any number of iterators may run
// concurrently with each other, with the writer, and with the lifecycle
// engine: the snapshot holds references on its segments, so files retired
// by compaction or retention stay readable until this iterator drains or is
// closed.
//
// Blocks are read through one payload buffer and decoded into one record
// slice, both reused from block to block; Record copies a record out, Ref
// points at it in place. NextBlock hands out a covered block's payload
// instead of decoding it. The payload buffer is a store block buffer
// (store.GrowBlockBuf), taken at the first block read and handed back to
// store's spares once the blocks run out or the iterator is released.
type Iterator struct {
	q     Query
	plans []segPlan
	tail  []store.Record
	si    int // current segment plan
	bi    int // next block within it
	// cur holds the records being yielded — the matching records of the
	// current block, or finally the staged tail — and cur[ci-1] is the
	// current record. A block with no matching record is decoded without
	// touching cur, so the current record survives until another record
	// replaces it.
	cur     []store.Record
	ci      int
	payload *[]byte           // block read buffer; nil when none is held
	br      store.BlockReader // decodes the blocks not handed out whole
	// block is the covered block NextBlock positioned, a view of payload;
	// it is nil at a record.
	block    []byte
	floor    uint64
	err      error
	released bool
}

// Scan returns an iterator over the records matching q at snapshot time, in
// sequence order. The candidate blocks are selected from the per-segment
// indexes; non-matching blocks are never read or decoded. An abandoned
// iterator (not drained to exhaustion) must be Closed, or segment files
// retired while it was in flight are never reclaimed.
func (db *DB) Scan(q Query) *Iterator { return db.ScanAttached(q, nil) }

// ScanAttached is Scan with attach, when not nil, called inside the
// critical section that takes the snapshot, under the store's read lock.
// Commits wait for that lock, and the commit hooks (SetOnCommit) fire
// while a commit holds it, so every record committed before attach runs
// is in the snapshot and every one committed after reaches the hooks
// only: an attach that starts following the hooks' records hands off from
// the snapshot to them with no record in both and none in neither. attach
// must not call the DB.
func (db *DB) ScanAttached(q Query, attach func()) *Iterator {
	it := &Iterator{q: q}
	it.plans, it.tail, it.floor = db.plan(q, attach)
	return it
}

// Next advances to the next matching record, reporting whether one exists.
// It returns false once the snapshot is exhausted or a read error occurred;
// either way the snapshot's segment references are released.
func (it *Iterator) Next() bool { return it.advance(false) }

// NextBlock advances like Next, except that a covered block — one the
// planner's index metadata proves to match in full — is not decoded: it is
// positioned whole, and Block returns its payload. Records of the other
// blocks and of the staged tail are positioned one at a time, as by Next,
// and Block returns nil for them.
func (it *Iterator) NextBlock() bool { return it.advance(true) }

// advance is Next, and with blocks set NextBlock.
func (it *Iterator) advance(blocks bool) bool {
	it.block = nil
	if it.err != nil {
		return false
	}
	for {
		if it.ci < len(it.cur) {
			it.ci++
			return true
		}
		if it.si >= len(it.plans) {
			// No block is left to read, and none is positioned.
			store.PutBlockBuf(it.payload)
			it.payload = nil
			if len(it.tail) > 0 {
				it.cur, it.ci = it.tail, 0
				it.tail = nil
				continue
			}
			it.release()
			return false
		}
		p := it.plans[it.si]
		if it.bi >= len(p.blocks) {
			it.si++
			it.bi = 0
			continue
		}
		m, covered := p.blocks[it.bi], p.covered[it.bi]
		it.bi++
		// A block of no records (possible only in a foreign store) has
		// nothing to hand out, and decodes to nothing below.
		it.payload = store.GrowBlockBuf(it.payload, int(m.payloadLen))
		if blocks && covered && m.count > 0 {
			payload, err := p.seg.readPayload(m, *it.payload)
			if err != nil {
				it.fail(err)
				return false
			}
			it.block = payload
			return true
		}
		// A covered block's index metadata proves every record matches, so
		// the per-record re-filter is skipped.
		filter := &it.q
		if covered {
			filter = nil
		}
		recs, err := p.seg.readBlock(m, *it.payload, &it.br, it.cur[:0], filter)
		if err != nil {
			it.fail(err)
			return false
		}
		if len(recs) > 0 {
			it.cur, it.ci = recs, 0
		}
	}
}

// fail ends the iteration with a read error.
func (it *Iterator) fail(err error) {
	// A failed decode may have overwritten cur's records.
	it.cur, it.ci = nil, 0
	it.err = err
	it.release()
}

// Block returns the covered block the last NextBlock positioned: its
// checksum-verified payload, a store block (store.BlockReader reads it).
// The payload belongs to the iterator and is valid only until the next
// advance, which overwrites it or hands its buffer to another reader; it
// is nil when the iterator stands at a record. Close leaves a positioned
// block's buffer to the caller, not handed back.
func (it *Iterator) Block() []byte { return it.block }

// Record returns a copy of the record positioned by the last successful
// Next or NextBlock — the zero Record before the first. The copy stays
// valid however far the iterator advances.
func (it *Iterator) Record() store.Record {
	if it.ci == 0 {
		return store.Record{}
	}
	return it.cur[it.ci-1]
}

// Ref returns the record positioned by the last successful Next or
// NextBlock in place, without copying it. The pointee belongs to the
// iterator: the next advance may overwrite it with a later block's record,
// so a caller keeping the record must copy it (or use Record). Ref must not
// be called before a record is positioned, nor while NextBlock stands at a
// block.
func (it *Iterator) Ref() *store.Record { return &it.cur[it.ci-1] }

// SeqFloor returns the store's persisted retention floor when the
// snapshot was taken: every record with a lower sequence number had been
// (or may have been) discarded by Retain, so a scan from below it cannot
// replay [MinSeq, SeqFloor) (see wire.EventResumeGap).
func (it *Iterator) SeqFloor() uint64 { return it.floor }

// Err returns the first read error the iterator encountered, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's snapshot references early and ends the
// iteration: Next reports false afterwards, and Record keeps returning the
// last record Next positioned. It is required when a scan is abandoned
// before exhaustion (e.g. a limit was reached) and harmless — a no-op —
// after the iterator drained naturally.
func (it *Iterator) Close() {
	it.release()
	it.cur, it.tail = it.cur[:it.ci], nil
	it.si = len(it.plans)
}

// release drops the snapshot's segment references and the block read
// buffer, which goes back to store's spares unless a block the caller may
// still read is positioned in it.
func (it *Iterator) release() {
	if it.block == nil {
		store.PutBlockBuf(it.payload)
	}
	it.payload, it.block = nil, nil
	if it.released {
		return
	}
	it.released = true
	releasePlans(it.plans)
}

// Collect materializes the records matching q in sequence order: Scan(q),
// drained into a slice.
func (db *DB) Collect(q Query) ([]store.Record, error) {
	it := db.Scan(q)
	var out []store.Record
	for it.Next() {
		out = append(out, it.Record())
	}
	return out, it.Err()
}

// Runs returns the distinct supervised run identifiers, sorted — the keys
// of the per-segment run posting lists.
func (db *DB) Runs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	set := make(map[string]bool)
	for _, s := range db.segs {
		for run := range s.index.byRun {
			set[run] = true
		}
	}
	for i := range db.pending {
		if db.pending[i].Run != "" {
			set[db.pending[i].Run] = true
		}
	}
	out := make([]string, 0, len(set))
	for run := range set {
		out = append(out, run)
	}
	sort.Strings(out)
	return out
}

// Span returns the earliest and latest Record.Time in the store; ok is
// false when the store is empty.
func (db *DB) Span() (first, last time.Time, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	minN, maxN := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range db.segs {
		if s.index.count == 0 {
			continue
		}
		lo, hi := s.index.timeSpan()
		if lo < minN {
			minN = lo
		}
		if hi > maxN {
			maxN = hi
		}
	}
	for i := range db.pending {
		n := db.pending[i].Time.UnixNano()
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if minN > maxN {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(0, minN), time.Unix(0, maxN), true
}
