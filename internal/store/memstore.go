package store

import (
	"sort"
	"sync"
)

// Sink consumes trace records. The middlebox logs every command, response,
// and exception to one or more sinks (Fig. 1, step 6).
type Sink interface {
	Append(r Record) error
}

// Notifier is implemented by sequencing sinks (MemStore, tracedb.DB) that
// can invoke commit hooks with seq-assigned records. A sequencing sink is a
// deployment's one commit point: the live-stream broker, trace exports and
// counters all consume its hooks instead of being appended to themselves.
// Every hook fires exactly once per record, in sequence order, after the
// record is visible to the sink's readers — the contract a live-stream
// broker needs to guarantee gap-free snapshot-then-follow handoff.
//
// SetOnCommit adds a hook; it never replaces one. Hooks run in the order
// they were added, each seeing every record committed after it was added.
// They run while the sink's internal lock is held: they must be fast, must
// not call back into the sink, and must not retain the slice (the backing
// array is reused).
type Notifier interface {
	SetOnCommit(fn func(recs []Record))
}

// MemStore is an in-memory document store standing in for RATracer's MongoDB
// instance. It assigns sequence numbers, keeps insertion order, and offers
// the query shapes the analyses need. It is safe for concurrent use.
type MemStore struct {
	mu       sync.RWMutex
	records  []Record
	nextSeq  uint64
	onCommit []func(recs []Record)
}

var (
	_ Sink     = (*MemStore)(nil)
	_ Notifier = (*MemStore)(nil)
)

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{} }

// SetOnCommit adds a commit hook (see Notifier).
func (s *MemStore) SetOnCommit(fn func(recs []Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCommit = append(s.onCommit, fn)
}

// commit runs the hooks over newly stored records. Caller holds s.mu.
func (s *MemStore) commit(recs []Record) {
	for _, fn := range s.onCommit {
		fn(recs)
	}
}

// Append stores the record, assigning its sequence number.
func (s *MemStore) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Seq = s.nextSeq
	s.nextSeq++
	s.records = append(s.records, r)
	s.commit(s.records[len(s.records)-1:])
	return nil
}

// AppendBatch stores all records under one lock acquisition, assigning
// consecutive sequence numbers in slice order — the boundary the campaign
// merge and dead-letter re-ingest rely on.
func (s *MemStore) AppendBatch(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(s.records)-len(s.records) < len(recs) {
		grown := make([]Record, len(s.records), len(s.records)+len(recs))
		copy(grown, s.records)
		s.records = grown
	}
	start := len(s.records)
	for _, r := range recs {
		r.Seq = s.nextSeq
		s.nextSeq++
		s.records = append(s.records, r)
	}
	if len(recs) > 0 {
		s.commit(s.records[start:])
	}
	return nil
}

// Len returns the number of stored records.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// All returns a copy of every record in insertion order.
func (s *MemStore) All() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// Filter returns the records matching pred, in insertion order.
func (s *MemStore) Filter(pred func(Record) bool) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, r := range s.records {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// ByProcedure returns the records labelled with the given procedure type.
func (s *MemStore) ByProcedure(proc string) []Record {
	return s.Filter(func(r Record) bool { return r.Procedure == proc })
}

// ByRun returns the records of one supervised run.
func (s *MemStore) ByRun(run string) []Record {
	return s.Filter(func(r Record) bool { return r.Run == run })
}

// Runs returns the distinct supervised run identifiers, sorted.
func (s *MemStore) Runs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[string]bool)
	for _, r := range s.records {
		if r.Run != "" {
			set[r.Run] = true
		}
	}
	out := make([]string, 0, len(set))
	for run := range set {
		out = append(out, run)
	}
	sort.Strings(out)
	return out
}

// CountByCommand returns the number of trace objects per command type
// ("Device.Name"), the Fig. 5(a) distribution.
func (s *MemStore) CountByCommand() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := make(map[string]int)
	for _, r := range s.records {
		m[r.Key()]++
	}
	return m
}

// CountByDevice returns the number of trace objects per device, the Fig. 5(a)
// legend totals.
func (s *MemStore) CountByDevice() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := make(map[string]int)
	for _, r := range s.records {
		m[r.Device]++
	}
	return m
}

// CommandSequence returns the ordered command names (bare names, as used by
// the n-gram analyses in §V) for records matching pred.
func (s *MemStore) CommandSequence(pred func(Record) bool) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for _, r := range s.records {
		if pred == nil || pred(r) {
			out = append(out, r.Name)
		}
	}
	return out
}
