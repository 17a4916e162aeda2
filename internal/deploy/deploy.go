// Package deploy assembles the deployment of the paper's Fig. 1 in one
// place: a trusted middlebox in front of the five simulated lab devices,
// one trace log, and the listeners radmiddlebox serves. Start builds it
// from a Config whose fields are radmiddlebox's flags, so the binary,
// radreplay's local middlebox, each Fig. 4 mode and the tests that serve
// a store run the same stack.
package deploy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rad/internal/fault"
	"rad/internal/fleet"
	"rad/internal/middlebox"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/power"
	"rad/internal/procedure"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
)

// Config describes one deployment; each field is the radmiddlebox flag of
// the same meaning. The zero value serves the default lab from an
// in-memory store, with no export, network delay, fault, stream, telemetry
// or span.
type Config struct {
	Listen       string
	StoreDir     string // "" logs to an in-memory store
	TracePath    string // JSONL export
	CSVPath      string
	Network      middlebox.NetworkProfile
	Power        bool
	StreamAddr   string
	ObsAddr      string
	Seed         uint64
	Faults       fault.Profile
	ExecTimeout  time.Duration
	Retries      int
	Breaker      fault.BreakerConfig
	DLQDir       string
	CompactEvery time.Duration
	RetainAge    time.Duration
	RetainBytes  int64
	Heartbeat    time.Duration
	IdleTimeout  time.Duration
	SpanBuffer   int
	SpanSample   uint64
	SlowSpan     time.Duration
	Fleet        bool
	MaxTenants   int
}

// Addrs are a deployment's bound listener addresses; a listener the Config
// leaves off has "".
type Addrs struct{ Exec, Stream, Obs string }

// Deployment is a started Config. Its exported fields are the bound
// addresses and the parts the shutdown summary reads; a part the Config
// leaves off is nil.
type Deployment struct {
	Addrs Addrs
	// Core is the default lab, the one untagged requests reach.
	Core       *middlebox.Core
	DB         *tracedb.DB // the sequencing store, with StoreDir
	Broker     *stream.Broker
	Fleet      *fleet.Router
	Failover   *store.FailoverSink
	Spans      *span.Recorder
	Monitor    *power.Monitor
	Exports    []*Export
	Reingested int           // dead letters Start folded back into DB
	Logged     atomic.Uint64 // records the sequencing sink committed since Start

	cfg    Config
	clock  simclock.Clock
	mbox   *middlebox.Server
	tails  *stream.Server
	obsSrv *http.Server
	// execStopped: Drain stopped the exec listener, so Close leaves it
	// and any straggler Drain severed.
	execStopped bool
}

// Start builds cfg's deployment in the order its parts depend on: the
// sink chain, the re-ingest of dead letters a previous run spilled, the
// commit hooks, the broker, the labs, and last the listeners. If a step
// fails, Start closes what it had built.
func Start(cfg Config) (_ *Deployment, err error) {
	d := &Deployment{cfg: cfg, clock: simclock.Real{}}
	defer func() {
		if err != nil {
			_ = d.Close()
		}
	}()
	// Telemetry registry: every layer registers its instruments here when
	// ObsAddr is set; nil keeps all hot paths uninstrumented.
	var reg *obs.Registry
	if cfg.ObsAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(reg)
	}
	// Span flight recorder: every layer gets the same recorder, so one
	// request's spans assemble into one tree at /debug/spans. A nil
	// recorder keeps every hot path at a single pointer check.
	if cfg.SpanBuffer > 0 {
		d.Spans = span.NewRecorder(span.Config{
			Buffer: cfg.SpanBuffer, Seed: cfg.Seed, SampleEvery: cfg.SpanSample, SlowThreshold: cfg.SlowSpan,
			OnSlow: func(s span.Span) {
				fmt.Printf("slow span: %s %s/%s %.1fms trace=%s\n",
					s.Name, s.Tenant, s.Outcome, float64(s.Duration())/1e6, span.FormatID(s.TraceID))
			},
		})
	}
	tenant := ""
	if cfg.Fleet {
		tenant = fleet.DefaultTenant
	}

	// The sequencing sink is the one commit point: the tracedb with
	// StoreDir, else an in-memory store. Each record is appended there
	// once; the exports, the record count and the live broker ride its
	// commit hook, so none of them can refuse or duplicate a committed
	// record.
	var seq interface {
		store.Sink
		store.Notifier
		Observe(*obs.Registry)
	}
	if cfg.StoreDir != "" {
		if d.DB, err = tracedb.Open(cfg.StoreDir, tracedb.Options{Clock: d.clock,
			Lifecycle: tracedb.LifecycleOptions{
				Interval: cfg.CompactEvery, RetainMaxAge: cfg.RetainAge, RetainMaxBytes: cfg.RetainBytes,
			}}); err != nil {
			return nil, err
		}
		seq = d.DB
	} else {
		seq = store.NewMemStore()
	}
	observe(reg, seq)
	var dlq *store.DeadLetterQueue
	if cfg.DLQDir != "" {
		if dlq, err = store.OpenDLQ(cfg.DLQDir); err != nil {
			return nil, err
		}
	}
	var sink store.Sink
	sink, d.Failover = d.sinkChain(seq, cfg.Seed+9, dlq, tenant, reg)
	// Fold dead letters from a previous run back into the store before
	// serving: the middlebox restarts with nothing owed.
	if dlq != nil && d.DB != nil {
		if d.Reingested, err = d.DB.Reingest(dlq); err != nil {
			return nil, fmt.Errorf("dlq re-ingest: %w", err)
		}
	}
	// The record count and the exports attach after re-ingest, so they
	// cover this run's records only.
	seq.SetOnCommit(func(recs []store.Record) { d.Logged.Add(uint64(len(recs))) })
	for i, path := range []string{cfg.TracePath, cfg.CSVPath} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		e := &Export{Path: path, f: f}
		if i == 0 {
			e.w = store.NewJSONLWriter(f)
		} else {
			e.w = store.NewCSVWriter(f)
		}
		d.Exports = append(d.Exports, e)
		seq.SetOnCommit(e.write)
	}

	if cfg.Power {
		d.Monitor = power.NewMonitor(power.DefaultModel(), d.clock, cfg.Seed^0x5bf0)
		if reg != nil {
			// rad_stream_published_total counts trace records only, and a
			// stream's broker is offered every sample too: this is the
			// samples' term in its delivered + dropped balance.
			reg.SetHelp("rad_power_samples_total", "Power samples the UR3e monitor recorded (with a stream listener, each is offered to the broker).")
			reg.CounterFunc("rad_power_samples_total", func() uint64 { return uint64(d.Monitor.Len()) })
		}
	}
	if cfg.StreamAddr != "" {
		d.Broker = stream.NewBroker()
		observe(reg, d.Broker)
		d.Broker.AttachStore(seq)
		if d.Monitor != nil {
			d.Broker.AttachMonitor(d.Monitor)
		}
	}
	d.Core = d.lab(sink, cfg.Seed, tenant, reg, d.Monitor)
	// Fleet mode: the lab built above becomes the default tenant (untagged
	// peers see no change), and tenant-tagged requests lazily build labs
	// of their own.
	var handler middlebox.Handler = d.Core
	if cfg.Fleet {
		if d.Fleet, err = fleet.NewRouter(fleet.Config{
			MaxTenants: cfg.MaxTenants, Registry: reg, Factory: d.tenant,
		}); err != nil {
			return nil, err
		}
		handler = d.Fleet
	}

	if cfg.StreamAddr != "" {
		d.tails = stream.NewServer(d.Broker, d.DB)
		d.tails.SetSpans(d.Spans)
		d.tails.SetHeartbeat(cfg.Heartbeat)
		if d.Fleet != nil {
			d.tails.SetTenantResolver(d.Fleet.ResolveStream)
		}
		observe(reg, d.tails)
		if d.Addrs.Stream, err = d.tails.Start(cfg.StreamAddr); err != nil {
			return nil, err
		}
	}
	d.mbox = middlebox.NewHandlerServer(handler, cfg.Network, cfg.Seed+6)
	d.mbox.SetSpans(d.Spans)
	if cfg.IdleTimeout > 0 {
		d.mbox.SetIdleTimeout(cfg.IdleTimeout)
	}
	observe(reg, d.mbox)
	if cfg.ObsAddr != "" {
		ln, err := net.Listen("tcp", cfg.ObsAddr)
		if err != nil {
			return nil, err
		}
		// /healthz flips to 503 the moment any listener begins draining, so
		// a balancer stops routing to a middlebox that is shutting down;
		// /debug/spans serves the flight recorder's recent trace trees.
		opts := obs.MuxOptions{Health: func() bool {
			return !d.mbox.Draining() && (d.tails == nil || !d.tails.Draining()) &&
				(d.Fleet == nil || !d.Fleet.Draining())
		}}
		if d.Spans != nil {
			opts.Spans = span.Handler(d.Spans)
		}
		d.obsSrv = &http.Server{Handler: obs.ServeMux(reg, opts)}
		go func() { _ = d.obsSrv.Serve(ln) }()
		d.Addrs.Obs = ln.Addr().String()
	}
	if d.Addrs.Exec, err = d.mbox.Start(cfg.Listen); err != nil {
		return nil, err
	}
	return d, nil
}

// observe registers part's instruments in reg. A nil reg, as without a
// telemetry listener or for a fleet tenant, registers nothing.
func observe(reg *obs.Registry, part interface{ Observe(*obs.Registry) }) {
	if reg != nil {
		part.Observe(reg)
	}
}

// sinkChain fronts a lab's sequencing store with a flaky sink seeded
// flakySeed, when the fault profile fails appends, and with a failover
// sink spilling to dlq, when there is one. It returns the chain's head
// and the failover sink (nil without dlq).
func (d *Deployment) sinkChain(seq store.Sink, flakySeed uint64, dlq *store.DeadLetterQueue, tenant string, reg *obs.Registry) (store.Sink, *store.FailoverSink) {
	sink := seq
	if d.cfg.Faults.SinkErrProb > 0 {
		flaky := fault.WrapSink(sink, d.cfg.Faults, flakySeed)
		observe(reg, flaky)
		sink = flaky
	}
	if dlq == nil {
		return sink, nil
	}
	failover := store.NewFailoverSink(sink, dlq)
	failover.SetSpans(d.Spans, tenant)
	observe(reg, failover)
	return failover, failover
}

// lab builds one lab logging to sink: a core whose spans carry tenant, the
// five devices seeded seed+1…+5, each behind a fault wrapper seeded
// seed+10+i when the fault profile is active, and the exec policy. Only
// the default lab registers in reg and drives the power monitor.
func (d *Deployment) lab(sink store.Sink, seed uint64, tenant string, reg *obs.Registry, monitor *power.Monitor) *middlebox.Core {
	core := middlebox.NewCore(d.clock, sink)
	core.SetSpans(d.Spans, tenant)
	observe(reg, core)
	for i, dev := range procedure.NewDevices(d.clock, seed, monitor).All() {
		if d.cfg.Faults.Active() {
			fd := fault.WrapDevice(dev, d.clock, d.cfg.Faults, seed+10+uint64(i))
			observe(reg, fd)
			dev = fd
		}
		core.Register(dev)
	}
	if c := d.cfg; c.ExecTimeout > 0 || c.Retries > 0 || c.Breaker.Threshold > 0 {
		core.SetExecPolicy(middlebox.ExecPolicy{Timeout: c.ExecTimeout, Retries: c.Retries, RetrySeed: c.Seed, Breaker: c.Breaker})
	}
	return core
}

// tenant is the fleet's factory. The default tenant is the lab Start
// built. Any other gets a lab of its own seeded fleet.TenantSeed(Seed,
// id), on an in-memory store whose flaky sink is seeded that seed ^ 9,
// with its dead letters under DLQDir/tenants/<id> and its own broker when
// the deployment streams.
func (d *Deployment) tenant(id string) (*fleet.Resources, error) {
	if id == fleet.DefaultTenant {
		return &fleet.Resources{Core: d.Core, Broker: d.Broker, DB: d.DB}, nil
	}
	tseed := fleet.TenantSeed(d.cfg.Seed, id)
	res := &fleet.Resources{}
	if d.cfg.DLQDir != "" {
		dlq, err := store.OpenTenantDLQ(d.cfg.DLQDir, id)
		if err != nil {
			return nil, err
		}
		res.DLQ = dlq
	}
	mem := store.NewMemStore()
	sink, _ := d.sinkChain(mem, tseed^9, res.DLQ, id, nil)
	if d.cfg.StreamAddr != "" {
		b := stream.NewBroker()
		b.AttachStore(mem)
		res.Broker, res.Close = b, func() error { b.Close(); return nil }
	}
	res.Core = d.lab(sink, tseed, id, nil, nil)
	return res, nil
}

// Drain stops the deployment in the order its parts depend on. The exec
// listener goes first, so no request is left in flight. report then runs
// against the quiet core while the stream's subscribers are still
// attached. The stream listener, the fleet's tenant labs and the store's
// flush follow. Each drains until ctx expires and then severs its
// stragglers, which degrades the shutdown without failing it: severed
// joins those errors. A ctx already done when Drain is called closes each
// listener at once and leaves the tenant labs to Close. err is a listener
// that failed to close or a store that failed to flush; Drain stops there.
func (d *Deployment) Drain(ctx context.Context, report func()) (severed, err error) {
	graceful := ctx.Err() == nil
	var degraded []error
	stop := func(name string, drain func(context.Context) error, closeNow func() error) error {
		if !graceful {
			return closeNow()
		}
		if err := drain(ctx); err != nil {
			degraded = append(degraded, fmt.Errorf("%s drain: %w", name, err))
		}
		return nil
	}
	d.execStopped = true
	if err = stop("exec", d.mbox.Drain, d.mbox.Close); err == nil {
		report()
		if d.tails != nil {
			err = stop("stream", d.tails.Drain, d.tails.Close)
		}
	}
	if err == nil && d.Fleet != nil {
		// Tenant labs drain too: their brokers close and their stores sync
		// before Close severs anything.
		err = stop("fleet", d.Fleet.Drain, func() error { return nil })
	}
	if err == nil && d.DB != nil {
		err = d.DB.Flush()
	}
	return errors.Join(degraded...), err
}

// Close stops what Start started and Drain did not: the listeners, the
// fleet's tenant labs and the exports. It then closes the store and
// returns the store's error. Close is safe on a deployment Start left half
// built.
func (d *Deployment) Close() error {
	if d.mbox != nil && !d.execStopped {
		_ = d.mbox.Close()
	}
	if d.obsSrv != nil {
		_ = d.obsSrv.Close()
	}
	if d.tails != nil {
		_ = d.tails.Close()
	}
	if d.Fleet != nil {
		_ = d.Fleet.Close()
	}
	for _, e := range d.Exports {
		e.Close()
	}
	if d.DB != nil {
		return d.DB.Close()
	}
	return nil
}

// Export writes the committed records to a trace file from the sequencing
// sink's commit hook, which runs once per record in seq order. It never
// refuses a record: a failed write is counted for the shutdown summary.
type Export struct {
	Path string

	f *os.File
	w interface { // JSONL or CSV
		store.Sink
		Flush() error
	}
	mu       sync.Mutex // orders the hook against Close
	failures int
}

func (e *Export) write(recs []store.Record) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range recs {
		if e.w.Append(r) != nil {
			e.failures++
		}
	}
}

// Close writes out buffered records and closes the file, returning the
// export's write failures; a failed flush or close counts as one more.
func (e *Export) Close() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.w.Flush() != nil {
		e.failures++
	}
	if e.f.Close() != nil {
		e.failures++
	}
	return e.failures
}
