// Command radmiddlebox runs a standalone trusted middlebox: it hosts the
// five simulated Hein Lab devices, serves the wire protocol over TCP, and
// logs every command once, to a persistent tracedb store (or an in-memory
// one without -store), exporting each committed record to JSONL/CSV trace
// files — the deployment of Fig. 1 with the physical devices replaced by
// simulators and the MongoDB instance by the embedded store.
//
// Usage:
//
//	radmiddlebox [-listen ADDR] [-store DIR] [-trace FILE.jsonl] [-csv FILE.csv] [-network lan|cloud|none] [-power] [-stream ADDR] [-fleet [-tenants N]]
//
// Stop with SIGINT/SIGTERM: the listeners drain gracefully — in-flight
// execs finish, replies and subscriber rings flush, tenant stores sync —
// within the -drain-timeout budget before stragglers are severed, and
// traces are flushed on shutdown. -heartbeat pings v2 stream subscribers
// and reaps the silent ones; -idle-timeout does the same for half-open
// exec connections. A -store
// directory survives crashes (torn tails are truncated on reopen) and is
// queryable with radquery while the middlebox is down.
//
// -stream opens a second listener serving the live trace feed (tail it with
// radwatch, or radquery -follow): every committed record fans out to
// connected subscribers through per-connection bounded rings, and with
// -store set, new subscribers can replay the whole store before going live
// (snapshot-then-follow). Per-subscriber delivery counters appear in the
// shutdown summary.
//
// -fleet turns the listener multi-tenant: requests tagged with a tenant ID
// route to lazily-instantiated independent labs (own devices, fault
// wrappers, exec policies, per-tenant dead letters under -dlq, and their
// own live broker with -stream), while untagged peers keep reaching the
// default lab exactly as before. -tenants caps how many labs the process
// will instantiate.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/ika"
	"rad/internal/device/quantos"
	"rad/internal/device/tecan"
	"rad/internal/device/ur3e"
	"rad/internal/fault"
	"rad/internal/fleet"
	"rad/internal/middlebox"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/parallel"
	"rad/internal/power"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
)

func main() {
	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "radmiddlebox:", err)
		os.Exit(1)
	}
}

// run serves until stop closes (main wires stop to SIGINT/SIGTERM; tests
// close it directly).
func run(args []string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("radmiddlebox", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7780", "listen address")
	storeDir := fs.String("store", "", "persistent tracedb directory ('' disables)")
	tracePath := fs.String("trace", "middlebox-trace.jsonl", "JSONL trace log ('' disables)")
	csvPath := fs.String("csv", "", "additional CSV trace log ('' disables)")
	network := fs.String("network", "lan", "emulated network profile: lan, cloud, or none")
	withPower := fs.Bool("power", true, "attach the UR3e power monitor")
	streamAddr := fs.String("stream", "", "live-stream listen address ('' disables)")
	obsAddr := fs.String("obs-addr", "", "telemetry listen address serving /metrics, /snapshot, and /debug/pprof ('' disables)")
	seed := fs.Uint64("seed", 1, "device simulation seed")
	faultSpec := fs.String("fault-profile", "", "fault-injection profile: none, flaky, or chaos, with optional key=value overrides (e.g. flaky,hang=0.01)")
	execTimeout := fs.Duration("exec-timeout", 0, "per-exec deadline (0 disables)")
	execRetries := fs.Int("retries", 0, "extra attempts for idempotent commands after infrastructure failures")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive infrastructure failures that open a device's circuit breaker (0 disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 30*time.Second, "open-breaker cooldown before a half-open probe")
	breakerProbes := fs.Int("breaker-probes", 1, "successful half-open probes required to close a breaker")
	dlqDir := fs.String("dlq", "", "dead-letter directory: trace batches the sinks refuse spill here and re-ingest into -store on the next start ('' disables failover)")
	compactEvery := fs.Duration("compact-every", 0, "background storage-lifecycle cadence for -store: retention then compaction each interval (0 disables)")
	retainAge := fs.Duration("retain-age", 0, "retention: retire sealed -store segments older than this (0 keeps everything)")
	retainBytes := fs.Int64("retain-bytes", 0, "retention: retire oldest sealed -store segments past this byte budget (0 is unlimited)")
	heartbeat := fs.Duration("heartbeat", 0, "stream liveness: ping subscribers at this interval and reap any that stop answering (0 disables)")
	idleTimeout := fs.Duration("idle-timeout", 0, "reap exec connections idle past this deadline — half-open peers stop holding sockets and goroutines (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM: in-flight requests finish and subscriber rings flush before connections are severed (0 closes immediately)")
	spanBuffer := fs.Int("span-buffer", 512, "span flight-recorder ring capacity: the most spans held at once, the oldest overwritten first (0 disables request tracing)")
	spanSample := fs.Uint64("span-sample", 0, "trace sampling: keep one trace in N (0 or 1 keeps every trace)")
	slowSpan := fs.Duration("slow-span", 0, "log every span at least this long (0 disables the slow-span log)")
	fleetMode := fs.Bool("fleet", false, "serve a multi-tenant fleet: tenant-tagged requests route to lazily-instantiated per-tenant labs; untagged peers keep reaching the default lab unchanged")
	maxTenants := fs.Int("tenants", fleet.DefaultMaxTenants, "labs one -fleet listener will instantiate before refusing new tenant IDs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	faults, err := fault.ParseProfile(*faultSpec)
	if err != nil {
		return err
	}

	var profile middlebox.NetworkProfile
	switch *network {
	case "lan":
		profile = middlebox.LANProfile()
	case "cloud":
		profile = middlebox.CloudProfile()
	case "none":
	default:
		return fmt.Errorf("unknown network profile %q", *network)
	}

	// Telemetry registry: every layer below registers its instruments here
	// when -obs-addr is set; nil keeps all hot paths uninstrumented.
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		parallel.Observe(reg)
		obs.RegisterRuntimeMetrics(reg)
	}
	clock := simclock.Real{}

	// Span flight recorder: always-on request tracing in bounded memory.
	// Every layer below gets the same recorder, so one request's client,
	// wire, exec, store, and stream spans assemble into one tree at
	// /debug/spans. A nil recorder (-span-buffer 0) keeps every hot path at
	// a single pointer check.
	var spans *span.Recorder
	if *spanBuffer > 0 {
		spans = span.NewRecorder(span.Config{
			Buffer:        *spanBuffer,
			Seed:          *seed,
			SampleEvery:   *spanSample,
			SlowThreshold: *slowSpan,
			OnSlow: func(s span.Span) {
				fmt.Printf("slow span: %s %s/%s %.1fms trace=%s\n",
					s.Name, s.Tenant, s.Outcome, float64(s.Duration())/1e6, span.FormatID(s.TraceID))
			},
		})
	}
	spanTenant := ""
	if *fleetMode {
		spanTenant = fleet.DefaultTenant
	}

	// The sequencing sink is the one commit point: the tracedb with -store,
	// else an in-memory store. Each record is appended there once; the
	// trace exports, the record count and the live broker ride its commit
	// hook, so none of them can refuse or duplicate a committed record.
	var seq interface {
		store.Sink
		store.Notifier
	}
	var tdb *tracedb.DB
	if *storeDir != "" {
		db, err := tracedb.Open(*storeDir, tracedb.Options{Clock: clock,
			Lifecycle: tracedb.LifecycleOptions{
				Interval:       *compactEvery,
				RetainMaxAge:   *retainAge,
				RetainMaxBytes: *retainBytes,
			}})
		if err != nil {
			return err
		}
		defer db.Close()
		tdb, seq = db, db
		if reg != nil {
			tdb.Observe(reg)
		}
	} else {
		mem := store.NewMemStore()
		if reg != nil {
			mem.Observe(reg)
		}
		seq = mem
	}
	var sink store.Sink = seq
	if faults.SinkErrProb > 0 {
		flaky := fault.WrapSink(sink, faults, *seed+9)
		if reg != nil {
			flaky.Observe(reg)
		}
		sink = flaky
	}
	var dlq *store.DeadLetterQueue
	var failover *store.FailoverSink
	if *dlqDir != "" {
		dlq, err = store.OpenDLQ(*dlqDir)
		if err != nil {
			return err
		}
		// Fold dead letters from a previous run back into the store before
		// serving: the middlebox restarts with nothing owed.
		if tdb != nil {
			n, err := tdb.Reingest(dlq)
			if err != nil {
				return fmt.Errorf("dlq re-ingest: %w", err)
			}
			if n > 0 {
				fmt.Printf("dlq: re-ingested %d spilled records from %s\n", n, *dlqDir)
			}
		}
		failover = store.NewFailoverSink(sink, dlq)
		failover.SetSpans(spans, spanTenant)
		if reg != nil {
			failover.Observe(reg)
		}
		sink = failover
	}

	// The record count and the exports attach after re-ingest, so they
	// cover this run's records only.
	var logged atomic.Uint64
	seq.SetOnCommit(func(recs []store.Record) { logged.Add(uint64(len(recs))) })
	var exports []*export
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		exports = append(exports, &export{path: *tracePath, f: f, w: store.NewJSONLWriter(f)})
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		exports = append(exports, &export{path: *csvPath, f: f, w: store.NewCSVWriter(f)})
	}
	for _, e := range exports {
		seq.SetOnCommit(e.write)
	}
	core := middlebox.NewCore(clock, sink)
	core.SetSpans(spans, spanTenant)
	if reg != nil {
		core.Observe(reg)
	}

	var monitor *power.Monitor
	if *withPower {
		monitor = power.NewMonitor(power.DefaultModel(), clock, *seed^0x5bf0)
	}

	// applyPolicy hardens a core with the exec-policy flags; it applies to
	// the default lab below and to every lazily-built fleet tenant.
	applyPolicy := func(c *middlebox.Core) {
		if *execTimeout > 0 || *execRetries > 0 || *breakerThreshold > 0 {
			c.SetExecPolicy(middlebox.ExecPolicy{
				Timeout:   *execTimeout,
				Retries:   *execRetries,
				RetrySeed: *seed,
				Breaker: fault.BreakerConfig{
					Threshold: *breakerThreshold,
					Cooldown:  *breakerCooldown,
					Probes:    *breakerProbes,
				},
			})
		}
	}

	var broker *stream.Broker
	var streamSrv *stream.Server

	// Fleet mode: the fully-configured lab built above becomes the default
	// tenant (untagged peers see no change), and tenant-tagged requests
	// lazily instantiate independent labs — own devices, fault wrappers,
	// policies, per-tenant dead letters under -dlq, and their own live
	// broker when -stream is set.
	var handler middlebox.Handler = core
	var fleetRouter *fleet.Router
	if *fleetMode {
		fleetRouter, err = fleet.NewRouter(fleet.Config{
			MaxTenants: *maxTenants,
			Registry:   reg,
			Spans:      spans,
			Factory: func(id string) (*fleet.Resources, error) {
				if id == fleet.DefaultTenant {
					return &fleet.Resources{Core: core, Broker: broker, DB: tdb}, nil
				}
				tseed := fleet.TenantSeed(*seed, id)
				mem := store.NewMemStore()
				var sink store.Sink = mem
				res := &fleet.Resources{}
				if faults.SinkErrProb > 0 {
					sink = fault.WrapSink(sink, faults, tseed^9)
				}
				if *dlqDir != "" {
					tdlq, err := store.OpenTenantDLQ(*dlqDir, id)
					if err != nil {
						return nil, err
					}
					res.DLQ = tdlq
					tfo := store.NewFailoverSink(sink, tdlq)
					tfo.SetSpans(spans, id)
					sink = tfo
				}
				tcore := middlebox.NewCore(clock, sink)
				tcore.SetSpans(spans, id)
				if *streamAddr != "" {
					b := stream.NewBroker()
					tcore.AttachBroker(b)
					res.Broker = b
					res.Close = func() error { b.Close(); return nil }
				}
				tenantDevices := []device.Device{
					c9.New(device.NewEnv(clock, tseed+1)),
					ur3e.New(device.NewEnv(clock, tseed+2), nil),
					ika.New(device.NewEnv(clock, tseed+3)),
					tecan.New(device.NewEnv(clock, tseed+4)),
					quantos.New(device.NewEnv(clock, tseed+5)),
				}
				for i, d := range tenantDevices {
					if faults.Active() {
						d = fault.WrapDevice(d, clock, faults, tseed+10+uint64(i))
					}
					tcore.Register(d)
				}
				applyPolicy(tcore)
				res.Core = tcore
				return res, nil
			},
		})
		if err != nil {
			return err
		}
		defer fleetRouter.Close()
		handler = fleetRouter
	}

	if *streamAddr != "" {
		broker = stream.NewBroker()
		if reg != nil {
			broker.Observe(reg)
		}
		core.AttachBroker(broker)
		if monitor != nil {
			broker.AttachMonitor(monitor)
		}
		streamSrv = stream.NewServer(broker, tdb)
		streamSrv.SetSpans(spans)
		if *heartbeat > 0 {
			streamSrv.SetHeartbeat(stream.HeartbeatConfig{Interval: *heartbeat})
		}
		if fleetRouter != nil {
			streamSrv.SetTenantResolver(fleetRouter.ResolveStream)
		}
		if reg != nil {
			streamSrv.Observe(reg)
		}
		saddr, err := streamSrv.Start(*streamAddr)
		if err != nil {
			return err
		}
		defer streamSrv.Close()
		fmt.Printf("stream listening on %s\n", saddr)
		if streamReady != nil {
			streamReady <- saddr
		}
	}
	devices := []device.Device{
		c9.New(device.NewEnv(clock, *seed+1)),
		ur3e.New(device.NewEnv(clock, *seed+2), monitor),
		ika.New(device.NewEnv(clock, *seed+3)),
		tecan.New(device.NewEnv(clock, *seed+4)),
		quantos.New(device.NewEnv(clock, *seed+5)),
	}
	for i, d := range devices {
		if faults.Active() {
			fd := fault.WrapDevice(d, clock, faults, *seed+10+uint64(i))
			if reg != nil {
				fd.Observe(reg)
			}
			d = fd
		}
		core.Register(d)
	}
	applyPolicy(core)

	srv := middlebox.NewHandlerServer(handler, profile, *seed+6)
	srv.SetSpans(spans)
	if *idleTimeout > 0 {
		srv.SetIdleTimeout(*idleTimeout)
	}
	if reg != nil {
		srv.Observe(reg)
	}

	var obsSrv *http.Server
	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			return err
		}
		// /healthz flips to 503 the moment any listener begins draining, so
		// a balancer stops routing to a middlebox that is shutting down;
		// /debug/spans serves the flight recorder's recent trace trees.
		opts := obs.MuxOptions{Health: func() bool {
			if srv.Draining() {
				return false
			}
			if streamSrv != nil && streamSrv.Draining() {
				return false
			}
			if fleetRouter != nil && fleetRouter.Draining() {
				return false
			}
			return true
		}}
		if spans != nil {
			opts.Spans = span.Handler(spans)
		}
		obsSrv = &http.Server{Handler: obs.ServeMuxWith(reg, opts)}
		go func() { _ = obsSrv.Serve(ln) }()
		defer obsSrv.Close()
		fmt.Printf("telemetry listening on http://%s/metrics\n", ln.Addr())
		if obsReady != nil {
			obsReady <- ln.Addr().String()
		}
	}
	addr, err := srv.Start(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("middlebox listening on %s (network=%s, power=%t)\n", addr, *network, *withPower)
	if fleetRouter != nil {
		fmt.Printf("fleet mode: up to %d tenant labs\n", *maxTenants)
	}
	if faults.Active() {
		fmt.Printf("fault injection active: %s\n", *faultSpec)
	}
	if listenReady != nil {
		listenReady <- addr
	}
	<-stop

	// Graceful drain: one -drain-timeout budget shared by the exec
	// listener, the stream listener, and the fleet router. In-flight execs
	// finish and their replies flush, subscriber rings empty, and tenant
	// stores sync; only stragglers past the budget are severed. A timeout
	// degrades the shutdown, it does not fail it.
	drainCtx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "radmiddlebox: exec drain: %v (stragglers severed)\n", err)
		}
	} else if err := srv.Close(); err != nil {
		return err
	}
	stats := core.Snapshot()
	fmt.Printf("\nshut down: %d execs, %d trace uploads, %d pings, %d errors; %d records logged, %d sink refusals\n",
		stats.Execs, stats.Traces, stats.Pings, stats.Errors, logged.Load(), stats.SinkErrors)
	for _, e := range exports {
		fmt.Printf("export %s: %d write failures\n", e.path, e.close())
	}
	if fleetRouter != nil {
		fst := fleetRouter.Snapshot()
		fmt.Printf("fleet: %d tenant labs, %d requests routed, %d rejected\n",
			fst.Tenants, fst.Routed, fst.Rejected)
		for _, ts := range fst.PerTenant {
			fmt.Printf("  %-24s routed %d, execs %d, errors %d\n",
				ts.ID, ts.Requests, ts.Stats.Execs, ts.Stats.Errors)
		}
	}
	res := stats.Resilience
	if res.Timeouts+res.Retries+res.Shed+res.InfraErrors > 0 || len(res.Breakers) > 0 {
		fmt.Printf("resilience: %d timeouts, %d retries, %d shed, %d infra errors\n",
			res.Timeouts, res.Retries, res.Shed, res.InfraErrors)
		for _, b := range res.Breakers {
			fmt.Printf("  breaker %-8s %-9s opened %d, probed %d, shed %d\n",
				b.Device, b.State, b.Opens, b.Probes, b.Sheds)
		}
	}
	if spans != nil {
		sst := spans.Stats()
		fmt.Printf("spans: %d recorded, %d buffered, %d evicted, %d sampled out\n",
			sst.Recorded, sst.Buffered, sst.Evicted, sst.Sampled)
	}
	if failover != nil {
		fst := failover.Stats()
		fmt.Printf("failover: %d primary errors, %d batches (%d records) dead-lettered to %s\n",
			fst.PrimaryErrors, fst.SpilledBatches, fst.SpilledRecords, dlq.Dir())
	}
	if streamSrv != nil {
		if *drainTimeout > 0 {
			if err := streamSrv.Drain(drainCtx); err != nil {
				fmt.Fprintf(os.Stderr, "radmiddlebox: stream drain: %v (stragglers severed)\n", err)
			}
		} else if err := streamSrv.Close(); err != nil {
			return err
		}
		fmt.Printf("stream: %d records published, %d subscribers at shutdown\n",
			broker.Published(), len(stats.Subscribers))
		for _, s := range stats.Subscribers {
			lag := ""
			if s.Lagging {
				lag = " (lagging)"
			}
			fmt.Printf("  %-24s delivered %d, dropped %d, buffered %d/%d%s\n",
				s.Name, s.Delivered, s.Dropped, s.Buffered, s.Capacity, lag)
		}
	}
	if fleetRouter != nil && *drainTimeout > 0 {
		// Tenant labs drain too: their brokers close and their stores sync
		// before the deferred Close severs anything.
		if err := fleetRouter.Drain(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "radmiddlebox: fleet drain: %v\n", err)
		}
	}
	if tdb != nil {
		if err := tdb.Flush(); err != nil {
			return err
		}
		fmt.Printf("tracedb: %d records persisted to %s (%d segments)\n",
			tdb.Len(), tdb.Dir(), tdb.Segments())
		if lc := tdb.Lifecycle(); lc.Compactions > 0 || lc.SegmentsRetired > 0 {
			fmt.Printf("tracedb lifecycle: %d compactions (%d blocks merged), %d segments retired, %d records dropped, %d bytes reclaimed\n",
				lc.Compactions, lc.BlocksMerged, lc.SegmentsRetired, lc.RecordsDropped, lc.BytesReclaimed)
		}
	}
	if monitor != nil {
		fmt.Printf("power samples recorded: %d\n", monitor.Len())
	}
	return nil
}

// listenReady, streamReady, and obsReady, when set by a test, receive the
// bound addresses once the respective listeners are up.
var (
	listenReady chan string
	streamReady chan string
	obsReady    chan string
)

// export writes the committed records to a trace file from the
// sequencing sink's commit hook, which runs once per record in seq order.
// It never refuses a record: a failed write is counted for the shutdown
// summary.
type export struct {
	path string
	f    *os.File
	w    interface {
		Append(store.Record) error
		Flush() error
	}
	mu       sync.Mutex // orders the hook against the shutdown close
	failures int
}

func (e *export) write(recs []store.Record) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range recs {
		if e.w.Append(r) != nil {
			e.failures++
		}
	}
}

// close writes out buffered records and closes the file, returning the
// export's write failures; a failed flush or close counts as one more.
func (e *export) close() int {
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
