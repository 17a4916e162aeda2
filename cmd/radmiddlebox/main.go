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
// -stream opens a second listener serving the live feed, which radwatch
// tails: every committed record fans out to connected subscribers through
// per-connection bounded rings, and with -store set, new subscribers can
// replay the whole store before going live (snapshot-then-follow). With
// -power (the default) the UR3e's power samples ride the same feed to the
// subscribers that ask for them (radwatch -power); the monitor keeps none,
// and the shutdown summary prints how many it recorded. The broker's
// published count and per-subscriber delivery counters appear there too.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"rad/internal/deploy"
	"rad/internal/fault"
	"rad/internal/fleet"
	"rad/internal/middlebox"
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
	var cfg deploy.Config
	fs := flag.NewFlagSet("radmiddlebox", flag.ContinueOnError)
	fs.StringVar(&cfg.Listen, "listen", "127.0.0.1:7780", "listen address")
	fs.StringVar(&cfg.StoreDir, "store", "", "persistent tracedb directory ('' disables)")
	fs.StringVar(&cfg.TracePath, "trace", "middlebox-trace.jsonl", "JSONL trace log ('' disables)")
	fs.StringVar(&cfg.CSVPath, "csv", "", "additional CSV trace log ('' disables)")
	network := fs.String("network", "lan", "emulated network profile: lan, cloud, or none")
	fs.BoolVar(&cfg.Power, "power", true, "attach the UR3e power monitor")
	fs.StringVar(&cfg.StreamAddr, "stream", "", "live-stream listen address ('' disables)")
	fs.StringVar(&cfg.ObsAddr, "obs-addr", "", "telemetry listen address serving /metrics, /snapshot, and /debug/pprof ('' disables)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "device simulation seed")
	faultSpec := fs.String("fault-profile", "", "fault-injection profile: none, flaky, or chaos, with optional key=value overrides (e.g. flaky,hang=0.01)")
	fs.DurationVar(&cfg.ExecTimeout, "exec-timeout", 0, "per-exec deadline (0 disables)")
	fs.IntVar(&cfg.Retries, "retries", 0, "extra attempts for idempotent commands after infrastructure failures")
	fs.IntVar(&cfg.Breaker.Threshold, "breaker-threshold", 0, "consecutive infrastructure failures that open a device's circuit breaker (0 disables)")
	fs.DurationVar(&cfg.Breaker.Cooldown, "breaker-cooldown", 30*time.Second, "open-breaker cooldown before a half-open probe")
	fs.IntVar(&cfg.Breaker.Probes, "breaker-probes", 1, "successful half-open probes required to close a breaker")
	fs.StringVar(&cfg.DLQDir, "dlq", "", "dead-letter directory: trace batches the sinks refuse spill here and re-ingest into -store on the next start ('' disables failover)")
	fs.DurationVar(&cfg.CompactEvery, "compact-every", 0, "background storage-lifecycle cadence for -store: retention then compaction each interval (0 disables)")
	fs.DurationVar(&cfg.RetainAge, "retain-age", 0, "retention: retire sealed -store segments older than this (0 keeps everything)")
	fs.Int64Var(&cfg.RetainBytes, "retain-bytes", 0, "retention: retire oldest sealed -store segments past this byte budget (0 is unlimited)")
	fs.DurationVar(&cfg.Heartbeat, "heartbeat", 0, "stream liveness: ping subscribers at this interval and reap any that stop answering (0 disables)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0, "reap exec connections idle past this deadline — half-open peers stop holding sockets and goroutines (0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget on SIGINT/SIGTERM: in-flight requests finish and subscriber rings flush before connections are severed (0 closes immediately)")
	fs.IntVar(&cfg.SpanBuffer, "span-buffer", 512, "span flight-recorder ring capacity: the most spans held at once, the oldest overwritten first (0 disables request tracing)")
	fs.Uint64Var(&cfg.SpanSample, "span-sample", 0, "trace sampling: keep one trace in N (0 or 1 keeps every trace)")
	fs.DurationVar(&cfg.SlowSpan, "slow-span", 0, "log every span at least this long (0 disables the slow-span log)")
	fs.BoolVar(&cfg.Fleet, "fleet", false, "serve a multi-tenant fleet: tenant-tagged requests route to lazily-instantiated per-tenant labs; untagged peers keep reaching the default lab unchanged")
	fs.IntVar(&cfg.MaxTenants, "tenants", fleet.DefaultMaxTenants, "labs one -fleet listener will instantiate before refusing new tenant IDs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if cfg.Faults, err = fault.ParseProfile(*faultSpec); err != nil {
		return err
	}
	if cfg.Network, err = middlebox.ParseNetworkProfile(*network); err != nil {
		return err
	}

	d, err := deploy.Start(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	if d.Reingested > 0 {
		fmt.Printf("dlq: re-ingested %d spilled records from %s\n", d.Reingested, cfg.DLQDir)
	}
	if d.Addrs.Stream != "" {
		fmt.Printf("stream listening on %s\n", d.Addrs.Stream)
	}
	if d.Addrs.Obs != "" {
		fmt.Printf("telemetry listening on http://%s/metrics\n", d.Addrs.Obs)
	}
	fmt.Printf("middlebox listening on %s (network=%s, power=%t)\n", d.Addrs.Exec, *network, cfg.Power)
	if cfg.Fleet {
		fmt.Printf("fleet mode: up to %d tenant labs\n", cfg.MaxTenants)
	}
	if cfg.Faults.Active() {
		fmt.Printf("fault injection active: %s\n", *faultSpec)
	}
	if ready != nil {
		ready <- d.Addrs
	}
	<-stop

	// One -drain-timeout budget for the whole graceful drain; a zero
	// budget closes every listener at once.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	severed, err := d.Drain(ctx, func() { printSummary(d, cfg.DLQDir) })
	if severed != nil {
		fmt.Fprintf(os.Stderr, "radmiddlebox: %v (stragglers severed)\n", severed)
	}
	if err != nil {
		return err
	}
	if db := d.DB; db != nil {
		fmt.Printf("tracedb: %d records persisted to %s (%d segments)\n",
			db.Len(), db.Dir(), db.Segments())
		if lc := db.Lifecycle(); lc.Compactions > 0 || lc.SegmentsRetired > 0 {
			fmt.Printf("tracedb lifecycle: %d compactions (%d blocks merged), %d segments retired, %d records dropped, %d bytes reclaimed\n",
				lc.Compactions, lc.BlocksMerged, lc.SegmentsRetired, lc.RecordsDropped, lc.BytesReclaimed)
		}
	}
	if d.Monitor != nil {
		fmt.Printf("power samples recorded: %d\n", d.Monitor.Len())
	}
	return nil
}

// ready, when set by a test, receives the bound addresses once every
// listener is up.
var ready chan deploy.Addrs

// printSummary prints the shutdown summary once the exec listener has
// stopped, closing the exports; the stream's subscribers are listed
// before the stream drain detaches them.
func printSummary(d *deploy.Deployment, dlqDir string) {
	stats := d.Core.Snapshot()
	fmt.Printf("\nshut down: %d execs, %d trace uploads, %d pings, %d errors; %d records logged, %d sink refusals\n",
		stats.Execs, stats.Traces, stats.Pings, stats.Errors, d.Logged.Load(), stats.SinkErrors)
	for _, e := range d.Exports {
		fmt.Printf("export %s: %d write failures\n", e.Path, e.Close())
	}
	if d.Fleet != nil {
		fst := d.Fleet.Snapshot()
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
	if d.Spans != nil {
		sst := d.Spans.Stats()
		fmt.Printf("spans: %d recorded, %d buffered, %d evicted, %d sampled out\n",
			sst.Recorded, sst.Buffered, sst.Evicted, sst.Sampled)
	}
	if d.Failover != nil {
		fst := d.Failover.Stats()
		fmt.Printf("failover: %d primary errors, %d batches (%d records) dead-lettered to %s\n",
			fst.PrimaryErrors, fst.SpilledBatches, fst.SpilledRecords, dlqDir)
	}
	if d.Broker != nil {
		subs := d.Broker.Stats()
		fmt.Printf("stream: %d records published, %d subscribers at shutdown\n",
			d.Broker.Published(), len(subs))
		for _, s := range subs {
			lag := ""
			if s.Lagging {
				lag = " (lagging)"
			}
			fmt.Printf("  %-24s delivered %d, dropped %d, buffered %d/%d%s\n",
				s.Name, s.Delivered, s.Dropped, s.Buffered, s.Capacity, lag)
		}
	}
}
