package tracedb

import (
	"math"
	"strings"

	"rad/internal/store"
)

// Purity bits: set when every record in a block shares one value of the
// field, making the block's sole* field authoritative for coverage checks.
const (
	pureDevice = 1 << iota
	pureKey
	pureRun
	pureProc
)

// blockMeta is one entry of a segment's sparse index: enough to locate,
// verify, and time-prune a block without decoding it, plus the per-field
// sole values that let the planner prove a block matches a filter in full
// (the Iterator fast path that skips the per-record re-filter).
type blockMeta struct {
	off        int64 // file offset of the block's 8-byte header
	payloadLen int32
	crc        uint32
	count      int32
	minTimeN   int64 // min/max Record.Time over the block, UnixNano
	maxTimeN   int64
	minSeq     uint64 // min/max Record.Seq over the block, for resume scans
	maxSeq     uint64

	pure       uint8 // pure* bits; sole* is meaningful only when its bit is set
	soleDevice string
	soleKey    string
	soleRun    string
	soleProc   string
}

// covers reports whether every record in the block provably satisfies q:
// each set equality filter is backed by a pure sole value and the block's
// time bounds sit inside the query window. A covered block can be emitted
// without re-running Query.Match per record.
func (m *blockMeta) covers(q Query, fromN, toN int64) bool {
	if m.minTimeN < fromN || m.maxTimeN > toN {
		return false
	}
	if m.minSeq < q.MinSeq {
		return false
	}
	if q.Device != "" && (m.pure&pureDevice == 0 || m.soleDevice != q.Device) {
		return false
	}
	if q.Key != "" && (m.pure&pureKey == 0 || m.soleKey != q.Key) {
		return false
	}
	if q.Run != "" && (m.pure&pureRun == 0 || m.soleRun != q.Run) {
		return false
	}
	if q.Procedure != "" && (m.pure&pureProc == 0 || m.soleProc != q.Procedure) {
		return false
	}
	return true
}

// segmentIndex is the in-memory index of one segment, built block-by-block
// at write time and rebuilt by the recovery scan on Open. Posting lists map
// a filter value to the (sorted, deduplicated) indexes of the blocks that
// contain at least one matching record, so an indexed scan touches only the
// blocks that can match instead of the whole segment.
type segmentIndex struct {
	blocks   []blockMeta
	byDevice map[string][]int32
	byKey    map[string][]int32 // command type, Record.Key() = "Device.Name"
	byRun    map[string][]int32
	byProc   map[string][]int32

	count   int
	maxSeq  uint64
	payload int64 // the blocks' payload bytes, headers excluded

	// names holds one copy of each string the index keeps, sole values
	// and posting-list keys: a decoded record's strings may share a chunk
	// with those of the records beside it (store.BlockReader.Next), which
	// the index must not keep alive.
	names map[string]string
}

func newSegmentIndex() segmentIndex {
	return segmentIndex{
		byDevice: make(map[string][]int32),
		byKey:    make(map[string][]int32),
		byRun:    make(map[string][]int32),
		byProc:   make(map[string][]int32),
		names:    make(map[string]string),
	}
}

// addBlock indexes one committed block, whose location, payload length
// and checksum m holds. recs must be the block's records in on-disk order.
// A writer that numbered them from seq as it encoded them
// (store.AppendFrames) passes numbered; otherwise each record's own Seq
// is indexed. t is the writer's scratch: one pass folds the records into
// it, and the index then updates each posting list once per distinct
// value of the block. That saves work where a block holds few
// distinct values, as a campaign's blocks do (a few dozen command types
// and a handful of runs and procedures per block); a block whose records
// each hold their own values gains nothing from it
// (BenchmarkTraceDBAppendDistinct).
func (ix *segmentIndex) addBlock(t *blockTally, m blockMeta, recs []store.Record, seq uint64, numbered bool) {
	t.reset()
	m.count = int32(len(recs))
	for i := range recs {
		r := &recs[i]
		n := r.Time.UnixNano()
		s := r.Seq
		if numbered {
			s = seq + uint64(i)
		}
		if i == 0 {
			m.minTimeN, m.maxTimeN, m.minSeq, m.maxSeq = n, n, s, s
		} else {
			m.minTimeN, m.maxTimeN = min(m.minTimeN, n), max(m.maxTimeN, n)
			m.minSeq, m.maxSeq = min(m.minSeq, s), max(m.maxSeq, s)
		}
		t.pairs.add(pair{r.Device, r.Name})
		t.runs.add(r.Run)
		t.procs.add(r.Procedure)
	}
	for _, p := range t.pairs.vals {
		t.devices.add(p.device)
		t.key = append(append(append(t.key[:0], p.device...), '.'), p.name...)
		t.keys.add(ix.ownBytes(t.key))
	}
	bi := int32(len(ix.blocks))
	for _, d := range t.devices.vals {
		post(ix.byDevice, ix.own(d), bi)
	}
	for _, key := range t.keys.vals {
		post(ix.byKey, key, bi)
	}
	for _, r := range t.runs.vals {
		if r != "" {
			post(ix.byRun, ix.own(r), bi)
		}
	}
	for _, p := range t.procs.vals {
		post(ix.byProc, ix.own(p), bi)
	}
	// A field is pure, and its sole value kept, where the block holds one
	// value of it; an empty block holds none.
	for _, f := range [...]struct {
		bit  uint8
		vals []string
		sole *string
	}{
		{pureDevice, t.devices.vals, &m.soleDevice}, {pureKey, t.keys.vals, &m.soleKey},
		{pureRun, t.runs.vals, &m.soleRun}, {pureProc, t.procs.vals, &m.soleProc},
	} {
		if len(f.vals) == 1 {
			m.pure |= f.bit
			*f.sole = ix.own(f.vals[0])
		}
	}
	ix.maxSeq = max(ix.maxSeq, m.maxSeq)
	ix.count += len(recs)
	ix.payload += int64(m.payloadLen)
	ix.blocks = append(ix.blocks, m)
}

// blockTally is the scratch addBlock folds one block's records into: the
// block's distinct (device, name) pairs, runs and procedures, and the
// devices and command types the pairs make. Its writer owns it and reuses
// it from block to block: the DB for appends, the compactor for its
// output, the recovery scan for the segment it reads.
type blockTally struct {
	pairs   valueTally[pair]
	runs    valueTally[string]
	procs   valueTally[string]
	devices valueTally[string]
	keys    valueTally[string] // the index's own copies (ownBytes)
	key     []byte             // one "Device.Name" command type at a time
}

// pair is a record's (Device, Name); its command type is Record.Key(),
// which two pairs can share when a device name holds a '.'.
type pair struct{ device, name string }

func (t *blockTally) reset() {
	t.pairs.reset()
	t.runs.reset()
	t.procs.reset()
	t.devices.reset()
	t.keys.reset()
}

// valueTally collects the distinct values of one field, in first-seen
// order.
type valueTally[K comparable] struct {
	vals []K
	at   map[K]int // index into vals
	last int       // the most recently added value's index
}

// add adds v unless the tally holds it. Nearly every record of a
// campaign's block repeats the run and procedure of the record before it,
// and about a third its command type, so the last value added is tried
// before the map.
func (t *valueTally[K]) add(v K) {
	if len(t.vals) > 0 && t.vals[t.last] == v {
		return
	}
	i, ok := t.at[v]
	if !ok {
		if t.at == nil {
			t.at = make(map[K]int)
		}
		i = len(t.vals)
		t.at[v] = i
		t.vals = append(t.vals, v)
	}
	t.last = i
}

// reset empties the tally, keeping its memory but none of the values, so
// it holds no record's strings alive.
func (t *valueTally[K]) reset() {
	clear(t.at)
	clear(t.vals)
	t.vals = t.vals[:0]
}

// own returns the index's copy of s, made at the index's first sight of s.
func (ix *segmentIndex) own(s string) string {
	if c, ok := ix.names[s]; ok {
		return c
	}
	c := strings.Clone(s)
	ix.names[c] = c
	return c
}

// ownBytes is own for a string held as bytes; it allocates only at the
// index's first sight of the string.
func (ix *segmentIndex) ownBytes(b []byte) string {
	if c, ok := ix.names[string(b)]; ok {
		return c
	}
	c := string(b)
	ix.names[c] = c
	return c
}

// post appends bi to k's posting list in m unless it is already the tail
// entry: blocks are indexed in order, so the list stays sorted and
// deduplicated. k must be the index's own copy (own), which keys the list.
func post(m map[string][]int32, k string, bi int32) {
	if l := m[k]; len(l) == 0 || l[len(l)-1] != bi {
		m[k] = append(l, bi)
	}
}

// fieldList is one set equality filter's posting list, labelled with the
// field that produced it — the planner's unit of selectivity estimation.
type fieldList struct {
	field string // "device", "key", "run", or "procedure"
	list  []int32
}

// postingLists collects the posting lists of q's set filters in selectivity
// order (shortest list — the most selective filter — first; ties broken by
// field name order for determinism). ok is false when a filter value is
// absent from the segment entirely, which prunes the whole segment.
func (ix *segmentIndex) postingLists(q Query) (lists []fieldList, ok bool) {
	use := func(m map[string][]int32, field, k string) bool {
		if k == "" {
			return true
		}
		l, present := m[k]
		if !present {
			return false
		}
		lists = append(lists, fieldList{field: field, list: l})
		return true
	}
	if !use(ix.byDevice, "device", q.Device) || !use(ix.byKey, "key", q.Key) ||
		!use(ix.byRun, "run", q.Run) || !use(ix.byProc, "procedure", q.Procedure) {
		return nil, false
	}
	// Insertion order is device, key, run, procedure — a stable tie-break.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j].list) < len(lists[j-1].list); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	return lists, true
}

// intersect merges two sorted posting lists.
func intersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// timeSpan returns the segment's overall [min, max] Record.Time bounds in
// UnixNano, valid only when the segment holds records.
func (ix *segmentIndex) timeSpan() (minN, maxN int64) {
	minN, maxN = math.MaxInt64, math.MinInt64
	for i := range ix.blocks {
		if ix.blocks[i].count == 0 {
			continue
		}
		if ix.blocks[i].minTimeN < minN {
			minN = ix.blocks[i].minTimeN
		}
		if ix.blocks[i].maxTimeN > maxN {
			maxN = ix.blocks[i].maxTimeN
		}
	}
	return minN, maxN
}
