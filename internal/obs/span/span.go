// Package span is the repository's request-tracing layer: a dependency-free,
// always-on span flight recorder. Every layer of one request's journey —
// wire decode, policy attempts, device exec, store append, DLQ spill, stream
// delivery — records a Span carrying a 64-bit trace id and its parent's span
// id, and the recorder assembles the spans it still holds into trees on
// demand (/debug/spans, radwatch -spans).
//
// It is a flight recorder, not an exporter: spans land in one ring buffer
// of bounded memory, the newest span overwrites the oldest, and every loss
// is counted exactly (Stats.Evicted, Stats.Sampled). Nothing leaves the
// process unless something asks.
//
// Design rules, inherited from the obs metrics kit it lives beside:
//
//   - The traced hot paths are sacred. Record is one sampler check and one
//     short critical section copying the span by value into a preallocated
//     ring — no allocation, no channel, no I/O. A nil *Recorder is valid
//     everywhere and makes every method a no-op, so uninstrumented paths
//     pay a single nil check.
//   - Deterministic under simclock. Span ids come from a seeded splitmix64
//     counter stream and the sampling decision is a pure function of the
//     trace id and the seed, so a virtual-clock campaign samples the same
//     traces run after run. Timestamps are supplied by the caller from its
//     own injected clock; the recorder never reads one.
//   - No dependencies. Stdlib only, and nothing from the rest of the
//     repository, so every internal package may record spans without import
//     cycles.
package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Context is the trace-propagation pair a request carries across process
// boundaries: which trace it belongs to and which span is its parent. The
// zero value means "untraced" and is what every pre-tracing peer sends.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a trace.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Span outcomes. Free-form strings are allowed; these are the vocabulary
// the repository's own layers use (and /debug/spans filters on).
const (
	OutcomeOK      = "ok"
	OutcomeError   = "error"
	OutcomeTimeout = "timeout"
	OutcomeShed    = "shed"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// maxAttrs bounds a span's annotations. The array lives inline in the Span
// so recording never allocates; four is enough for the repository's spans
// (device, command, attempt, breaker state).
const maxAttrs = 4

// Span is one timed operation in a trace tree. SpanID must be unique within
// the trace; ParentID is zero for a root. Start and End come from the
// caller's clock (virtual or real — the recorder does not care).
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64

	Name    string // operation, e.g. "middlebox.exec"
	Tenant  string // owning lab; "" outside fleet deployments
	Outcome string // OutcomeOK etc.; "" reads as ok

	Start time.Time
	End   time.Time

	nattrs uint8
	attrs  [maxAttrs]Attr
}

// SetAttr annotates the span. Attributes past the inline capacity are
// silently dropped — annotations are a debugging aid, never load-bearing.
func (s *Span) SetAttr(key, value string) {
	if int(s.nattrs) < maxAttrs {
		s.attrs[s.nattrs] = Attr{Key: key, Value: value}
		s.nattrs++
	}
}

// Attrs returns the span's annotations (aliasing the span's storage).
func (s *Span) Attrs() []Attr { return s.attrs[:s.nattrs] }

// Duration is the span's elapsed time on its recording clock.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Failed reports whether the span's outcome is anything but success.
func (s *Span) Failed() bool { return s.Outcome != "" && s.Outcome != OutcomeOK }

// Config parameterizes a Recorder. The zero value is usable: every trace
// sampled, a 512-span ring, no slow-span hook.
type Config struct {
	// Buffer is the ring's capacity: the most spans the recorder holds at
	// once (default 512). A full ring overwrites its oldest span.
	Buffer int
	// Seed seeds the span-id stream and the sampling decision; 0 selects 1.
	// Two recorders with the same seed assign the same id sequence, which is
	// what keeps virtual-clock campaigns reproducible span-for-span.
	Seed uint64
	// SampleEvery keeps one trace in N (0 and 1 both mean every trace). The
	// decision is per trace id, so a trace is kept or dropped whole.
	SampleEvery uint64
	// SlowThreshold, when positive, invokes OnSlow for every recorded span
	// at or above the threshold — the slow-span log.
	SlowThreshold time.Duration
	// OnSlow receives slow spans. Called synchronously from Record; keep it
	// cheap (a log line).
	OnSlow func(Span)
}

// Recorder is the span flight recorder: one ring of spans under one mutex.
// A plain mutex, not atomics: the critical section is a value copy into a
// preallocated slot, and the ring must be read whole for tree assembly
// anyway. Safe for concurrent use; a nil *Recorder is a valid no-op
// recorder.
type Recorder struct {
	cfg    Config
	ids    atomic.Uint64 // span-id counter feeding the seeded stream
	sample atomic.Uint64 // spans discarded by the sampler

	mu       sync.Mutex
	ring     []Span
	head     int    // slot the next span goes to; the oldest once the ring is full
	recorded uint64 // total spans ever written to the ring
}

// NewRecorder builds a recorder.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Buffer <= 0 {
		cfg.Buffer = 512
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Recorder{cfg: cfg, ring: make([]Span, cfg.Buffer)}
}

// splitmix64 is the id stream's output function: a bijective mixer, so a
// sequential seeded counter yields well-distributed, collision-free ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 { // 0 means "no id" on the wire; remap the single zero output
		x = 1
	}
	return x
}

// Enabled reports whether spans are being recorded (false on a nil
// recorder) — the one-branch guard hot paths use before building a span.
func (r *Recorder) Enabled() bool { return r != nil }

// NewID draws the next span/trace id from the seeded stream. Returns 0 on
// a nil recorder.
func (r *Recorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	return splitmix64(r.cfg.Seed ^ r.ids.Add(1))
}

// NewContext starts a fresh trace: a new trace id with a new root span id.
// One counter bump claims both ids (the stream is identical to two NewID
// calls; a locked add is the single most expensive instruction on the
// traced fast path, so fresh traces pay it once).
func (r *Recorder) NewContext() Context {
	if r == nil {
		return Context{}
	}
	n := r.ids.Add(2)
	return Context{TraceID: splitmix64(r.cfg.Seed ^ (n - 1)), SpanID: splitmix64(r.cfg.Seed ^ n)}
}

// Adopt continues a trace received from a peer: the remote context's span
// becomes the parent. On an invalid (untraced) remote context it starts a
// fresh trace instead, so callers never branch.
func (r *Recorder) Adopt(remote Context) (ctx Context, parent uint64) {
	if r == nil {
		return Context{}, 0
	}
	if remote.Valid() {
		return Context{TraceID: remote.TraceID, SpanID: r.NewID()}, remote.SpanID
	}
	return r.NewContext(), 0
}

// Sampled reports the (deterministic) sampling decision for a trace id.
func (r *Recorder) Sampled(traceID uint64) bool {
	if r == nil {
		return false
	}
	n := r.cfg.SampleEvery
	if n <= 1 {
		return true
	}
	return splitmix64(traceID^r.cfg.Seed)%n == 0
}

// Record stores one completed span. Spans of unsampled traces are counted
// and discarded; a full ring overwrites its oldest span (counted in
// Stats.Evicted). Never blocks beyond the ring's short critical section.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if !r.Sampled(s.TraceID) {
		r.sample.Add(1)
		return
	}
	r.mu.Lock()
	r.ring[r.head] = s
	if r.head++; r.head == len(r.ring) {
		r.head = 0
	}
	r.recorded++
	r.mu.Unlock()
	if th := r.cfg.SlowThreshold; th > 0 && s.End.Sub(s.Start) >= th && r.cfg.OnSlow != nil {
		r.cfg.OnSlow(s)
	}
}

// Stats is the recorder's exact loss accounting.
type Stats struct {
	// Recorded counts spans accepted into the ring (including ones since
	// evicted).
	Recorded uint64 `json:"recorded"`
	// Evicted counts spans overwritten by newer ones (drop-oldest losses).
	Evicted uint64 `json:"evicted"`
	// Sampled counts spans discarded by the sampling decision.
	Sampled uint64 `json:"sampled"`
	// Buffered is the number of spans currently held.
	Buffered int `json:"buffered"`
}

// Stats snapshots the loss accounting.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := min(r.recorded, uint64(len(r.ring)))
	return Stats{Recorded: r.recorded, Evicted: r.recorded - held,
		Sampled: r.sample.Load(), Buffered: int(held)}
}

// Spans copies out every span currently buffered, oldest first.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recorded < uint64(len(r.ring)) {
		return append([]Span(nil), r.ring[:r.recorded]...)
	}
	return append(append(make([]Span, 0, len(r.ring)), r.ring[r.head:]...), r.ring[:r.head]...)
}

// Tree is one trace tree node: a span and the children recorded under it.
type Tree struct {
	Span     Span
	Children []*Tree
}

// Filter selects root spans for Roots. The zero value matches everything.
type Filter struct {
	// MinDuration keeps only roots at least this long.
	MinDuration time.Duration
	// Tenant keeps only roots tagged with this tenant id.
	Tenant string
	// Outcome keeps only roots with this outcome ("ok" also matches the
	// empty outcome).
	Outcome string
	// Limit caps the number of roots returned (most recent first);
	// 0 means no cap.
	Limit int
}

func (f Filter) match(s *Span) bool {
	if f.MinDuration > 0 && s.Duration() < f.MinDuration {
		return false
	}
	if f.Tenant != "" && s.Tenant != f.Tenant {
		return false
	}
	if f.Outcome != "" {
		o := s.Outcome
		if o == "" {
			o = OutcomeOK
		}
		if o != f.Outcome {
			return false
		}
	}
	return true
}

// Roots assembles the buffered spans into trees and returns the roots
// matching f, most recent first. A span is a root when it has no parent or
// its parent span is no longer buffered (partial trees survive eviction —
// and a server-side tree whose true root lives in the client's recorder
// still renders).
func (r *Recorder) Roots(f Filter) []*Tree {
	return Assemble(r.Spans(), f)
}

// Assemble builds trace trees from a flat span list (Roots over a recorder
// snapshot; also used on spans pulled from a remote /debug/spans). Children
// are ordered by start time; roots matching f are returned most recent
// first.
func Assemble(spans []Span, f Filter) []*Tree {
	if len(spans) == 0 {
		return nil
	}
	// Parent lookup is scoped by trace id, never span id alone: span ids
	// are only unique within one recorder's stream, and a tree often mixes
	// processes — a server root's ParentID is a span id drawn from the
	// *client's* seeded stream, which can collide numerically with a local
	// span of some other trace. Matching within the trace keeps every tree
	// self-contained; a same-trace collision (two spans, one id) last-wins.
	type key struct{ trace, span uint64 }
	nodes := make(map[key]*Tree, len(spans))
	for i := range spans {
		s := spans[i]
		nodes[key{s.TraceID, s.SpanID}] = &Tree{Span: s}
	}
	var roots []*Tree
	for _, n := range nodes {
		if p, ok := nodes[key{n.Span.TraceID, n.Span.ParentID}]; ok && n.Span.ParentID != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			a, b := n.Children[i].Span, n.Children[j].Span
			if !a.Start.Equal(b.Start) {
				return a.Start.Before(b.Start)
			}
			return a.SpanID < b.SpanID
		})
	}
	filtered := roots[:0]
	for _, n := range roots {
		if f.match(&n.Span) {
			filtered = append(filtered, n)
		}
	}
	sort.Slice(filtered, func(i, j int) bool {
		a, b := filtered[i].Span, filtered[j].Span
		if !a.Start.Equal(b.Start) {
			return a.Start.After(b.Start)
		}
		return a.SpanID > b.SpanID
	})
	if f.Limit > 0 && len(filtered) > f.Limit {
		filtered = filtered[:f.Limit]
	}
	return filtered
}

// TenantRollup aggregates one tenant's buffered spans — the per-tenant
// trace summary a fleet router exposes.
type TenantRollup struct {
	Tenant string        `json:"tenant"`
	Spans  uint64        `json:"spans"`
	Errors uint64        `json:"errors"` // spans with a non-ok outcome
	Max    time.Duration `json:"maxNanos"`
	Total  time.Duration `json:"totalNanos"`
}

// Rollup aggregates the buffered spans by tenant (untagged spans roll up
// under the empty tenant), sorted by tenant id.
func (r *Recorder) Rollup() []TenantRollup {
	if r == nil {
		return nil
	}
	acc := make(map[string]*TenantRollup)
	for _, s := range r.Spans() {
		t := acc[s.Tenant]
		if t == nil {
			t = &TenantRollup{Tenant: s.Tenant}
			acc[s.Tenant] = t
		}
		t.Spans++
		if s.Failed() {
			t.Errors++
		}
		d := s.Duration()
		if d > t.Max {
			t.Max = d
		}
		t.Total += d
	}
	out := make([]TenantRollup, 0, len(acc))
	for _, t := range acc {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
