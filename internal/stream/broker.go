// Package stream is the live fan-out layer between the middlebox's trace
// commit path and its online consumers: a bounded pub/sub broker that
// publishes every committed store.Record (and power sample) to any number of
// subscribers, each with its own bounded ring buffer and explicit overflow
// policy. It is the serving substrate the paper's purpose implies — IDS
// researchers watching the lab live instead of mining completed campaigns.
// It runs no analysis itself: an online detector (ids.Online, which
// radwatch -ids runs) is one more subscriber at the far end of a tail.
//
// Design rules:
//
//   - The trace hot path is sacred. Under the default DropOldest policy a
//     publisher never waits on a subscriber: a slow tailer loses its oldest
//     buffered events (with exact loss accounting) and the middlebox keeps
//     its throughput.
//   - Lossless consumers opt into Block, accepting that they backpressure
//     the producer; the online IDS and the gap-free handoff tests use it.
//   - Publish order equals sequence order. The broker is fed from a
//     store.Notifier commit hook, which fires under the store's lock, so
//     subscribers observe records exactly as the store sequenced them —
//     the invariant snapshot-then-follow (tail.go) is built on.
package stream

import (
	"sync"
	"sync/atomic"

	"rad/internal/power"
	"rad/internal/store"
	"rad/internal/tracedb"
)

// Kind discriminates the event union.
type Kind uint8

const (
	// KindTrace events carry a committed trace record.
	KindTrace Kind = iota
	// KindPower events carry one UR3e power-telemetry sample.
	KindPower
)

// Event is one published item: a trace record or a power sample.
type Event struct {
	Kind   Kind
	Record store.Record // valid when Kind == KindTrace
	Sample power.Sample // valid when Kind == KindPower
}

// Policy selects a subscriber's overflow behaviour.
type Policy uint8

const (
	// DropOldest (the default) sheds the oldest buffered event when the
	// ring is full, counting the drop. Publishers never block.
	DropOldest Policy = iota
	// Block makes publishers wait for ring space — lossless, but a stalled
	// consumer stalls the producer (and, through the commit hook, the trace
	// hot path). Reserve it for consumers that must see every record.
	Block
)

// DefaultBuffer is the ring capacity used when SubOptions.Buffer is not
// positive.
const DefaultBuffer = 1024

// SubOptions configures a subscription.
type SubOptions struct {
	// Name labels the subscriber in Stats (e.g. a remote address).
	Name string
	// Buffer is the ring capacity; <= 0 selects DefaultBuffer.
	Buffer int
	// Policy is the overflow behaviour when the ring is full.
	Policy Policy
	// Filter restricts trace events to those matching the query (the same
	// conjunctive predicate the tracedb indexed scan applies; the zero
	// value matches everything). Filtering happens at publish time, before
	// buffering — non-matching events cost the subscriber nothing.
	Filter tracedb.Query
	// Power opts into power-sample events (trace filters do not apply to
	// them).
	Power bool
}

// Broker fans committed events out to subscribers. Safe for concurrent use;
// a nil *Broker ignores publishes, so producers can hold one unconditionally.
type Broker struct {
	mu     sync.RWMutex
	subs   []*Subscriber
	closed bool

	published atomic.Uint64 // trace events offered to the fan-out

	// Lifetime delivery accounting across all subscribers, including ones
	// that have since detached (per-subscriber counters die with the
	// subscriber; these never go backwards, so they can be exported as
	// Prometheus counters — see obs.go).
	delivered atomic.Uint64
	dropped   atomic.Uint64

	// obs, when set by Observe, registers per-subscriber metrics as
	// subscriptions come and go. nextSubID uniquifies their "id" label.
	obs       *brokerObs
	nextSubID atomic.Uint64
}

// NewBroker returns an empty broker.
func NewBroker() *Broker { return &Broker{} }

// AttachStore wires the broker to a sequencing sink's commit hook: every
// record the sink commits is published with its assigned sequence number, in
// sequence order. Both store.MemStore and tracedb.DB implement
// store.Notifier.
func (b *Broker) AttachStore(n store.Notifier) {
	n.SetOnCommit(b.PublishBatch)
}

// AttachMonitor publishes every sample a power monitor records, from the
// monitor's sample hook (power.Monitor.SetOnSample), on the goroutine
// driving the arm. A power sample never waits on a subscriber, so a slow
// tail never stalls the robot: see Subscriber.offer. The one wait left is
// the broker's read lock, which a subscription change takes only briefly
// unless a full Block ring is already stalling the trace path.
func (b *Broker) AttachMonitor(m *power.Monitor) {
	m.SetOnSample(b.PublishPower)
}

// PublishBatch offers a batch of committed records in slice order. It is the
// store.Notifier commit-hook shape; the slice is not retained.
func (b *Broker) PublishBatch(recs []store.Record) {
	if b == nil || len(recs) == 0 {
		return
	}
	b.published.Add(uint64(len(recs)))
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.subs) == 0 {
		return
	}
	var ev Event
	for i := range recs {
		ev = Event{Kind: KindTrace, Record: recs[i]}
		for _, s := range b.subs {
			s.offer(&ev)
		}
	}
}

// PublishPower offers one power sample to the subscribers that opted in.
func (b *Broker) PublishPower(s power.Sample) {
	if b == nil {
		return
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.subs) == 0 {
		return
	}
	ev := Event{Kind: KindPower, Sample: s}
	for _, sub := range b.subs {
		sub.offer(&ev)
	}
}

// Published returns the number of trace events offered to the fan-out so
// far.
func (b *Broker) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Subscribe attaches a new subscriber. Events published after Subscribe
// returns are guaranteed to reach its ring (subject to the overflow policy).
func (b *Broker) Subscribe(opts SubOptions) *Subscriber {
	if opts.Buffer <= 0 {
		opts.Buffer = DefaultBuffer
	}
	s := &Subscriber{
		broker:   b,
		name:     opts.Name,
		policy:   opts.Policy,
		filter:   opts.Filter,
		power:    opts.Power,
		capacity: opts.Buffer,
	}
	s.cond = sync.NewCond(&s.mu)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		s.closed = true
		return s
	}
	b.subs = append(b.subs, s)
	if b.obs != nil {
		b.observeSubLocked(s)
	}
	return s
}

// Stats snapshots every live subscriber's counters.
func (b *Broker) Stats() []SubscriberStats {
	if b == nil {
		return nil
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]SubscriberStats, 0, len(b.subs))
	for _, s := range b.subs {
		out = append(out, s.Stats())
	}
	return out
}

// Close closes every subscriber and rejects future subscriptions. Publishes
// after Close are no-ops.
func (b *Broker) Close() {
	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	b.closed = true
	o := b.obs
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
		if o != nil {
			o.unobserveSub(s)
		}
	}
}

// detach removes s from the fan-out list.
func (b *Broker) detach(s *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, other := range b.subs {
		if other == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			if b.obs != nil {
				b.obs.unobserveSub(s)
			}
			return
		}
	}
}

// SubscriberStats is one subscriber's delivery accounting.
type SubscriberStats struct {
	Name      string
	Delivered uint64 // events handed to the consumer
	Dropped   uint64 // events shed under DropOldest
	Buffered  int    // events waiting in the ring right now
	Capacity  int    // ring capacity
	Lagging   bool   // ring at least half full (or events already shed)
}

// Subscriber is one consumer's bounded ring buffer. Recv is safe for a
// single consumer goroutine; offers may come from any number of publishers.
type Subscriber struct {
	broker *Broker
	name   string
	policy Policy
	filter tracedb.Query
	power  bool
	// capacity is the ring's size, which Stats reports from the start.
	capacity int

	mu   sync.Mutex
	cond *sync.Cond
	// buf is the ring, allocated at the first event offered: a
	// subscription that only replays a snapshot allocates none.
	buf       []Event
	head, n   int
	closed    bool
	delivered uint64
	dropped   uint64

	// obsLabels, when the broker is observed, holds this subscriber's
	// metric label pairs so detach can unregister its per-subscriber
	// metrics (see obs.go).
	obsLabels []string
}

// offer enqueues one event, applying the filter and the overflow policy. The
// event is copied into the ring; the pointer is not retained (publishers
// reuse the pointee across subscribers). A power sample never waits: it is
// published from the power monitor's sample hook, on the goroutine driving
// the arm, so at a full Block ring the sample itself is dropped and counted,
// never a buffered event.
func (s *Subscriber) offer(ev *Event) {
	switch ev.Kind {
	case KindTrace:
		if !s.filter.Match(ev.Record) {
			return
		}
	case KindPower:
		if !s.power {
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.policy == Block && s.n == s.capacity && !s.closed {
		if ev.Kind == KindPower {
			s.countDropLocked()
			return
		}
		s.cond.Wait()
	}
	if s.closed {
		return
	}
	if s.buf == nil {
		s.buf = make([]Event, s.capacity)
	}
	if s.n == len(s.buf) { // full under DropOldest: shed the oldest
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.countDropLocked()
	}
	s.buf[(s.head+s.n)%len(s.buf)] = *ev
	s.n++
	s.cond.Broadcast()
}

// countDropLocked counts one shed event. Caller holds s.mu.
func (s *Subscriber) countDropLocked() {
	s.dropped++
	if s.broker != nil {
		s.broker.dropped.Add(1)
	}
}

// Recv blocks until an event is available or the subscriber is closed; ok is
// false only when the subscriber is closed and its ring fully drained.
func (s *Subscriber) Recv() (Event, bool) { return s.take(true) }

// TryRecv is Recv without blocking: ok is false when the ring is empty.
func (s *Subscriber) TryRecv() (Event, bool) { return s.take(false) }

// take dequeues the oldest buffered event. With wait set it first blocks
// until an event is buffered or the subscriber is closed; ok is false when
// the ring is empty.
func (s *Subscriber) take(wait bool) (ev Event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for wait && s.n == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.n == 0 {
		return Event{}, false
	}
	ev = s.buf[s.head]
	s.buf[s.head] = Event{} // release references held by the slot
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.delivered++
	if s.broker != nil {
		s.broker.delivered.Add(1)
	}
	s.cond.Broadcast()
	return ev, true
}

// drain moves every buffered event onto dst, oldest first, and returns it
// with the subscriber's lifetime drop count, read in the same critical
// section — so a caller attaching drop deltas to the frames it sends sees
// exactly the drops that preceded them. With wait set, drain first blocks
// until an event is buffered or the subscriber is closed; without it, an
// empty ring returns dst unchanged. ok is false only when the subscriber is
// closed and its ring fully drained.
func (s *Subscriber) drain(dst []Event, wait bool) (_ []Event, dropped uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for wait && s.n == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.n == 0 {
		return dst, s.dropped, !s.closed
	}
	n := s.n
	first := s.buf[s.head:min(s.head+n, len(s.buf))]
	rest := s.buf[:n-len(first)] // the wrapped-around part, if any
	dst = append(append(dst, first...), rest...)
	clear(first) // release references held by the slots
	clear(rest)
	s.head = (s.head + n) % len(s.buf)
	s.n = 0
	s.delivered += uint64(n)
	if s.broker != nil {
		s.broker.delivered.Add(uint64(n))
	}
	s.cond.Broadcast()
	return dst, s.dropped, true
}

// Stats snapshots the subscriber's counters.
func (s *Subscriber) Stats() SubscriberStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubscriberStats{
		Name:      s.name,
		Delivered: s.delivered,
		Dropped:   s.dropped,
		Buffered:  s.n,
		Capacity:  s.capacity,
		Lagging:   2*s.n >= s.capacity || s.dropped > 0,
	}
}

// Close detaches the subscriber from the broker and wakes any blocked
// publishers and receivers. Events already buffered remain drainable with
// Recv/TryRecv until the ring is empty. Idempotent.
func (s *Subscriber) Close() {
	s.markClosed()
	if s.broker != nil {
		s.broker.detach(s)
	}
}

// markClosed flips the closed flag and wakes every waiter. Blocked
// publishers re-check the flag and drop the event; pending Recv calls drain
// the remaining ring contents, then report closure.
func (s *Subscriber) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
