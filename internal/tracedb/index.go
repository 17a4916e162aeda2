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

	// Per-value record counts answer the distribution queries (Fig. 5a
	// counts per command type / device) straight from the index.
	deviceCounts map[string]int
	keyCounts    map[string]int

	count  int
	maxSeq uint64

	// names holds one copy of each string the index keeps, sole values
	// and posting-list keys: a decoded record's strings may share a chunk
	// with those of the records beside it (store.BlockReader.Next), which
	// the index must not keep alive.
	names map[string]string
}

func newSegmentIndex() segmentIndex {
	return segmentIndex{
		byDevice:     make(map[string][]int32),
		byKey:        make(map[string][]int32),
		byRun:        make(map[string][]int32),
		byProc:       make(map[string][]int32),
		deviceCounts: make(map[string]int),
		keyCounts:    make(map[string]int),
		names:        make(map[string]string),
	}
}

// addBlock indexes one committed block. recs must be the block's records in
// on-disk order.
func (ix *segmentIndex) addBlock(off int64, payloadLen int, crc uint32, recs []store.Record) {
	bi := int32(len(ix.blocks))
	m := blockMeta{off: off, payloadLen: int32(payloadLen), crc: crc, count: int32(len(recs))}
	for i := range recs {
		r := &recs[i]
		n := r.Time.UnixNano()
		key := r.Key()
		if i == 0 {
			m.minTimeN, m.maxTimeN = n, n
			m.minSeq, m.maxSeq = r.Seq, r.Seq
			m.pure = pureDevice | pureKey | pureRun | pureProc
			m.soleDevice, m.soleKey, m.soleRun, m.soleProc = r.Device, key, r.Run, r.Procedure
		} else {
			if n < m.minTimeN {
				m.minTimeN = n
			}
			if n > m.maxTimeN {
				m.maxTimeN = n
			}
			if r.Seq < m.minSeq {
				m.minSeq = r.Seq
			}
			if r.Seq > m.maxSeq {
				m.maxSeq = r.Seq
			}
			if m.soleDevice != r.Device {
				m.pure &^= pureDevice
			}
			if m.soleKey != key {
				m.pure &^= pureKey
			}
			if m.soleRun != r.Run {
				m.pure &^= pureRun
			}
			if m.soleProc != r.Procedure {
				m.pure &^= pureProc
			}
		}
		ix.post(ix.byDevice, r.Device, bi)
		ix.post(ix.byKey, key, bi)
		if r.Run != "" {
			ix.post(ix.byRun, r.Run, bi)
		}
		ix.post(ix.byProc, r.Procedure, bi)
		ix.deviceCounts[r.Device]++
		ix.keyCounts[key]++
		if r.Seq > ix.maxSeq {
			ix.maxSeq = r.Seq
		}
	}
	// A sole value is kept only where it is authoritative.
	m.soleDevice = ix.sole(m.pure&pureDevice != 0, m.soleDevice)
	m.soleKey = ix.sole(m.pure&pureKey != 0, m.soleKey)
	m.soleRun = ix.sole(m.pure&pureRun != 0, m.soleRun)
	m.soleProc = ix.sole(m.pure&pureProc != 0, m.soleProc)
	ix.count += len(recs)
	ix.blocks = append(ix.blocks, m)
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

// sole returns the index's copy of v when pure, and "" otherwise.
func (ix *segmentIndex) sole(pure bool, v string) string {
	if !pure {
		return ""
	}
	return ix.own(v)
}

// post appends bi to the posting list unless it is already the tail entry —
// blocks are indexed in order, so the list stays sorted and deduplicated.
// The map's key is the index's own copy of k.
func (ix *segmentIndex) post(m map[string][]int32, k string, bi int32) {
	l := m[k]
	if len(l) > 0 && l[len(l)-1] == bi {
		return
	}
	m[ix.own(k)] = append(l, bi)
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
