// Package middlebox implements the trusted middlebox of Fig. 1: the
// component that sits between the (untrusted) lab computer and the CPS
// devices, accepts only the restricted RPC command set, executes or records
// device commands, and continuously logs every command, response, and
// exception to its trace sinks.
//
// The package splits the middlebox into a transport-independent Core (device
// registry, command execution, trace logging) and a TCP Server wrapping it.
// The split lets the same middlebox logic run over real sockets for the
// latency experiments (Fig. 4) and over an in-process transport under a
// virtual clock for generating the three-month dataset campaign.
package middlebox

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"rad/internal/device"
	"rad/internal/fault"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/wire"
)

// deviceEntry bundles everything the exec hot path needs about one
// registered device behind a single registry lookup: the device itself,
// its circuit breaker (nil unless hardened — a nil breaker admits
// everything), and its latency histograms (nil unless Observe was called).
// Entries are immutable after the configuration phase (Register /
// SetExecPolicy / Observe, all documented call-before-serving), so the hot
// path reads them without further synchronization.
type deviceEntry struct {
	dev     device.Device
	breaker *fault.Breaker
	// hist maps a command name to its latency histogram
	// (rad_middlebox_exec_seconds{device,command}), prebuilt from the
	// command catalog so the hot path pays one map read, never a
	// registration. histOther absorbs commands outside the catalog.
	hist      map[string]*obs.Histogram
	histOther *obs.Histogram
}

// Core is the transport-independent middlebox: it owns the device
// connections (REMOTE mode) and the trace log. Safe for concurrent use.
type Core struct {
	clock simclock.Clock
	// sink is immutable after NewCore; the logging hot path reads it
	// without taking any lock.
	sink store.Sink

	// devices is the device registry. Register, SetExecPolicy and Observe
	// edit it in place, and all of them run before the core serves: every
	// deployment, fleet tenant factory and test configures first. Serving
	// only reads it, so the exec hot path, Snapshot and the obs render
	// callbacks take no lock, and fleet-wide aggregation across hundreds
	// of tenant Cores never serializes any of them.
	devices map[string]*deviceEntry
	// obsReg, when set by Observe, receives every metric the middlebox
	// exports; per-device histograms live in the entries.
	obsReg *obs.Registry

	// Resilience machinery (see exec.go). policy/hardened/virtual are
	// immutable after SetExecPolicy; the zero policy keeps the seed-exact
	// single-attempt exec path.
	policy   ExecPolicy
	hardened bool
	virtual  bool // clock advances without blocking (simclock.Virtual)
	// realDeadline: attempts need the goroutine-and-timer guard of
	// execDeadlined (real clock with a timeout configured); otherwise the
	// deadline is a post-hoc virtual-elapsed check.
	realDeadline bool

	idempotent map[string]bool // "Device.Name" -> safe to retry

	retryMu  sync.Mutex
	retryRng *rand.Rand

	// spans, when attached, is the request-tracing flight recorder: one root
	// span per request with children for exec attempts and store appends
	// (internal/obs/span). Immutable after SetSpans; nil keeps tracing off
	// at the price of one nil check per request. spanTenant tags every span
	// with the owning tenant in fleet deployments.
	spans      *span.Recorder
	spanTenant string

	// Request counters are atomics so that concurrent device sessions never
	// serialize on a lock just to bump a statistic.
	execs    atomic.Uint64
	traces   atomic.Uint64
	pings    atomic.Uint64
	errors   atomic.Uint64
	sinkErrs atomic.Uint64 // records the trace sink refused

	// Resilience counters (hardened exec path only).
	timeouts  atomic.Uint64 // attempts that exceeded the exec deadline
	retries   atomic.Uint64 // extra attempts made for idempotent commands
	shed      atomic.Uint64 // requests rejected by an open breaker
	infraErrs atomic.Uint64 // infra-classified attempt failures
}

// Stats counts the requests a middlebox has served.
type Stats struct {
	Execs  uint64 // REMOTE-mode command executions
	Traces uint64 // DIRECT-mode trace uploads
	Pings  uint64
	Errors uint64 // requests that produced an error reply
	// SinkErrors counts trace records the sink refused. The request still
	// succeeded: tracing must not break the lab (§III).
	SinkErrors uint64
	// Resilience reports the hardened exec path's activity (zero when no
	// ExecPolicy is set).
	Resilience Resilience
}

// NewCore builds a middlebox core logging to sink (which may be nil to
// disable logging, e.g. in pure latency benchmarks). A Core is cheap enough
// to instantiate per tenant: the command catalogs are shared process-wide
// and the wire buffers are pooled, so per-tenant cost is the device
// registry and the counters.
func NewCore(clock simclock.Clock, sink store.Sink) *Core {
	return &Core{clock: clock, sink: sink, devices: make(map[string]*deviceEntry)}
}

// AttachBroker connects a live-stream broker to the middlebox: the broker
// is wired to the trace sink's commit hook, so subscribers see records with
// their authoritative sequence numbers, in commit order. The sink must
// assign those numbers (implement store.Notifier); AttachBroker panics on
// one that does not. Call before serving traffic.
func (c *Core) AttachBroker(b *stream.Broker) {
	n, ok := c.sink.(store.Notifier)
	if !ok {
		panic(fmt.Sprintf("middlebox: AttachBroker needs a sequencing sink (store.Notifier), have %T", c.sink))
	}
	b.AttachStore(n)
}

// SetSpans attaches a span flight recorder; tenant (may be empty) tags
// every span this core records, which is how fleet routers get per-tenant
// trace rollups. Call before serving traffic.
func (c *Core) SetSpans(r *span.Recorder, tenant string) {
	c.spans = r
	c.spanTenant = tenant
}

// Register connects a device to the middlebox. Registering a device with a
// name already in use replaces the previous registration (and resets its
// circuit breaker when one is configured). Call before serving traffic.
func (c *Core) Register(d device.Device) {
	e := &deviceEntry{dev: d}
	if c.hardened {
		e.breaker = fault.NewBreaker(d.Name(), c.clock, c.policy.Breaker)
	}
	if c.obsReg != nil {
		c.observeDevice(d.Name(), e)
	}
	c.devices[d.Name()] = e
}

// Snapshot returns a consistent point-in-time copy of the request counters
// without taking any lock — the registry walk behind Resilience only reads
// the device table, which serving never edits. Each counter is itself
// exact; a request that completes concurrently with Snapshot may or may not
// be included, but no counter ever goes backwards between snapshots. A
// fleet aggregating Snapshot across hundreds of tenants therefore never
// stops, or even slows, any of them.
func (c *Core) Snapshot() Stats {
	return Stats{
		Execs:      c.execs.Load(),
		Traces:     c.traces.Load(),
		Pings:      c.pings.Load(),
		Errors:     c.errors.Load(),
		SinkErrors: c.sinkErrs.Load(),
		Resilience: c.resilience(),
	}
}

// Handle processes one request and produces its reply. It implements the
// middlebox protocol:
//
//   - exec: execute the command on the target device (REMOTE mode), log the
//     trace record, reply with the device's response.
//   - trace: log a trace record observed by the client (DIRECT mode).
//   - ping: liveness/RTT probe.
func (c *Core) Handle(req wire.Request) wire.Reply {
	switch req.Op {
	case wire.OpPing:
		c.pings.Add(1)
		return wire.Reply{ID: req.ID, Value: "pong"}
	case wire.OpExec:
		return c.handleExec(req)
	case wire.OpTrace:
		return c.handleTrace(req)
	default:
		c.errors.Add(1)
		return wire.Reply{ID: req.ID, Error: fmt.Sprintf("middlebox: unknown op %q", req.Op)}
	}
}

func (c *Core) handleExec(req wire.Request) wire.Reply {
	e, ok := c.devices[req.Device] // device, breaker, histograms: no lock
	if !ok {
		c.errors.Add(1)
		return wire.Reply{ID: req.ID, Error: fmt.Sprintf("middlebox: device %q not registered", req.Device)}
	}
	d, br := e.dev, e.breaker
	// Adopt the caller's trace context (or start a fresh trace) before any
	// outcome branches, so shed requests trace too. On a nil recorder this
	// is a nil check returning the zero context, and every span site below
	// is skipped.
	sctx, parent := c.spans.Adopt(span.Context{TraceID: req.TraceID, SpanID: req.SpanID})
	if !br.Allow() {
		return c.shedExec(req, sctx, parent)
	}
	cmd := device.Command{Device: req.Device, Name: req.Name, Args: req.Args}
	start := c.clock.Now()
	// Without an exec policy the one attempt is a plain d.Exec: no
	// deadline, no breaker, no retry.
	value, end, err := c.execAttempt(d, cmd, start)
	if c.hardened {
		infra := err != nil && fault.IsInfra(err)
		br.Done(infra)
		if infra {
			c.infraErrs.Add(1)
			// The first attempt failed into the retry path: record its span
			// (the fault-free path records only the root, keeping its span
			// cost to one ring write), then continue the attempt loop.
			c.recordAttempt(sctx, 1, br, start, end, err)
			value, end, err = c.execRetry(d, br, cmd, sctx, value, end, err)
		}
	}
	if e.hist != nil {
		// Client-visible exec latency, retries and backoff included. The
		// duration comes from the injected clock, so virtual-clock
		// campaigns produce deterministic histograms. Traced execs stamp
		// the landing bucket's exemplar with their trace id, linking
		// rad_middlebox_exec_seconds buckets to /debug/spans trees.
		h, ok := e.hist[req.Name]
		if !ok {
			h = e.histOther
		}
		h.ObserveExemplar(end.Sub(start), sctx.TraceID)
	}

	rec := store.Record{
		Time: start, EndTime: end,
		Device: req.Device, Name: req.Name, Args: req.Args,
		Response:  value,
		Procedure: procedureLabel(req.Procedure),
		Run:       req.Run,
		Mode:      "REMOTE",
	}
	reply := wire.Reply{ID: req.ID, Value: value}
	c.execs.Add(1)
	if err != nil {
		rec.Exception = err.Error()
		reply.Error = err.Error()
		c.errors.Add(1)
	}
	if sctx.Valid() {
		// Stamp the record with the exec root's context so downstream span
		// sites (store append, DLQ spill, stream delivery) attach under it;
		// the fields are json:"-" so the persisted dataset is unchanged.
		rec.TraceID, rec.SpanID = sctx.TraceID, sctx.SpanID
		s := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID, ParentID: parent,
			Name: "middlebox.exec", Tenant: c.spanTenant, Start: start, End: end}
		s.SetAttr("device", req.Device)
		s.SetAttr("command", req.Name)
		if err != nil {
			s.Outcome = outcomeOf(err)
		}
		c.spans.Record(s)
	}
	c.log(rec)
	return reply
}

func (c *Core) handleTrace(req wire.Request) wire.Reply {
	rec := store.Record{
		Time:    time.Unix(0, req.StartNanos),
		EndTime: time.Unix(0, req.EndNanos),
		Device:  req.Device, Name: req.Name, Args: req.Args,
		Response: req.Value, Exception: req.Error,
		Procedure: procedureLabel(req.Procedure),
		Run:       req.Run,
		Mode:      "DIRECT",
	}
	c.traces.Add(1)
	if sctx, parent := c.spans.Adopt(span.Context{TraceID: req.TraceID, SpanID: req.SpanID}); sctx.Valid() {
		rec.TraceID, rec.SpanID = sctx.TraceID, sctx.SpanID
		s := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID, ParentID: parent,
			Name: "middlebox.trace", Tenant: c.spanTenant, Start: rec.Time, End: rec.EndTime}
		s.SetAttr("device", req.Device)
		s.SetAttr("command", req.Name)
		if req.Error != "" {
			s.Outcome = span.OutcomeError
		}
		c.spans.Record(s)
	}
	c.log(rec)
	return wire.Reply{ID: req.ID, Value: "ok"}
}

// log appends rec to the trace sink; an attached broker publishes it from
// the sink's commit hook.
func (c *Core) log(rec store.Record) {
	if c.sink == nil {
		return
	}
	// Trace logging must never fail the command path: a refused record is
	// counted, not returned (a full disk must not stop the lab). Traced
	// records get a store-append child span bracketing the write — under a
	// virtual clock the bracket is zero-width and deterministic.
	var err error
	if rec.TraceID != 0 {
		start := c.clock.Now()
		err = c.sink.Append(rec)
		s := span.Span{TraceID: rec.TraceID, SpanID: c.spans.NewID(), ParentID: rec.SpanID,
			Name: "store.append", Tenant: c.spanTenant, Start: start, End: c.clock.Now()}
		if err != nil {
			s.Outcome = span.OutcomeError
		}
		c.spans.Record(s)
	} else {
		err = c.sink.Append(rec)
	}
	if err != nil {
		c.sinkErrs.Add(1)
	}
}

// procedureLabel applies the paper's labelling rule: commands from
// supervised runs keep their procedure label, everything else is labelled
// "unknown procedure".
func procedureLabel(p string) string {
	if p == "" {
		return store.UnknownProcedure
	}
	return p
}
