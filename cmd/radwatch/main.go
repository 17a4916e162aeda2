// Command radwatch tails a middlebox's live trace stream — the "researchers
// watching the lab" client the dataset's serving layer exists for. It dials a
// radmiddlebox -stream listener, subscribes with server-side filters (the
// middlebox never sends events a watcher filtered out), and prints each
// record as it commits; with -snapshot, the whole persisted store replays
// first, then the live feed follows gap-free.
//
// Usage:
//
//	radwatch -addr HOST:PORT [filters] [-snapshot] [-power] [-reconnect] [-format text|jsonl|csv] [-limit N]
//	radwatch -addr HOST:PORT -ids -train TRACE.jsonl [-order N] [-window N] [-alerts FILE]
//	radwatch -obs HOST:PORT [-interval DUR] [-limit N]
//	radwatch -obs HOST:PORT -spans [-span-min DUR] [-span-tenant ID] [-span-outcome S] [-limit N]
//
// -obs switches radwatch from tailing traces to polling a middlebox
// telemetry endpoint (radmiddlebox -obs-addr): each poll fetches /snapshot
// and pretty-prints the non-zero counters, gauges, and latency histograms
// (count, mean, p50/p90/p99). -limit bounds the number of polls.
//
// -spans (with -obs) fetches the middlebox's span flight recorder
// (/debug/spans) once and pretty-prints the recent request trace trees —
// client, wire, exec-attempt, store, and stream spans stitched per request
// — plus recorder accounting and per-tenant rollups. -span-min,
// -span-tenant, and -span-outcome filter server-side; -limit caps the
// number of trees.
//
// A server that vanishes mid-tail makes radwatch exit nonzero with a
// summary of what it saw (records, last seq, drops) — unless -reconnect is
// set, in which case it redials with jittered exponential backoff and
// resumes from the last delivered sequence number, deduplicated, across
// any number of server restarts.
//
// Filters: -device, -key (Device.Name), -proc, -run. Overflow behaviour is
// chosen with -policy drop-oldest|block and -buffer N; under drop-oldest the
// server sheds this watcher's oldest events when it falls behind and reports
// the exact loss ("... N dropped").
//
// -ids turns the watcher into an online intrusion detector: it trains the
// §V-B perplexity model on the benign runs in -train (grouped by run label),
// scores a sliding window over the live command stream, runs the middlebox
// rule set, and emits structured alerts (JSONL by default, CSV with -format
// csv) instead of raw records.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"rad/internal/ids"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radwatch:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("radwatch", flag.ContinueOnError)
	addr := fs.String("addr", "", "stream listener address (required)")
	deviceF := fs.String("device", "", "filter: device name")
	key := fs.String("key", "", "filter: command type (Device.Name)")
	proc := fs.String("proc", "", "filter: procedure label")
	runLabel := fs.String("run", "", "filter: supervised run identifier")
	snapshot := fs.Bool("snapshot", false, "replay the persisted store before following live")
	withPower := fs.Bool("power", false, "include power-telemetry samples")
	policy := fs.String("policy", wire.PolicyDropOldest, "overflow policy: drop-oldest or block")
	buffer := fs.Int("buffer", 0, "server-side ring capacity (0 = default)")
	format := fs.String("format", "text", "output: text, jsonl, or csv")
	limit := fs.Int("limit", 0, "stop after N events (0 = forever)")
	obsAddr := fs.String("obs", "", "middlebox telemetry address (-obs-addr): poll /snapshot and pretty-print metrics instead of tailing the stream")
	interval := fs.Duration("interval", 2*time.Second, "obs: polling interval")
	spansMode := fs.Bool("spans", false, "obs: poll /debug/spans instead of /snapshot and pretty-print recent trace trees")
	spanMin := fs.Duration("span-min", 0, "spans: only trace trees whose root is at least this long")
	spanTenant := fs.String("span-tenant", "", "spans: only trace trees tagged with this tenant")
	spanOutcome := fs.String("span-outcome", "", "spans: only trace trees with this root outcome (ok, error, timeout, shed)")
	reconnect := fs.Bool("reconnect", false, "survive server restarts: redial with jittered exponential backoff and resume from the last delivered seq instead of exiting")
	reconnectSeed := fs.Uint64("reconnect-seed", 1, "reconnect: seed for the backoff-jitter PRNG (reproducible redial schedules)")
	idleTimeout := fs.Duration("idle-timeout", 0, "reconnect: treat a connection silent for this long as half-open and redial (pair with the server's heartbeat interval; 0 disables)")
	idsMode := fs.Bool("ids", false, "run the online IDS over the stream instead of printing records")
	train := fs.String("train", "", "ids: JSONL trace file of benign runs to train on")
	order := fs.Int("order", 2, "ids: n-gram model order")
	window := fs.Int("window", 0, "ids: sliding-window size in commands (0 = auto)")
	rules := fs.Bool("rules", false, "ids: also run the middlebox rule engine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *obsAddr != "" {
		if *spansMode {
			return watchSpans(out, *obsAddr, spanFilter{
				min: *spanMin, tenant: *spanTenant, outcome: *spanOutcome, limit: *limit,
			})
		}
		return watchObs(out, *obsAddr, *interval, *limit)
	}
	if *spansMode {
		return fmt.Errorf("-spans requires -obs")
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}

	req := wire.Subscribe{
		Name:   "radwatch",
		Device: *deviceF, Key: *key, Procedure: *proc, Run: *runLabel,
		Snapshot: *snapshot, Power: *withPower,
		Policy: *policy, Buffer: *buffer,
	}
	dial := func() (eventSource, error) {
		if *reconnect {
			return stream.NewResilientTail(stream.ResilientConfig{
				Addr:        *addr,
				Subscribe:   req,
				Seed:        *reconnectSeed,
				IdleTimeout: *idleTimeout,
			}), nil
		}
		return stream.Dial(*addr, req)
	}
	if *idsMode {
		if *train == "" {
			return fmt.Errorf("-ids requires -train")
		}
		det, err := trainDetector(*train, *order)
		if err != nil {
			return err
		}
		return watchIDS(out, dial, det, *window, *rules, *format, *limit)
	}
	return watch(out, dial, *format, *limit, *reconnect)
}

// eventSource is what watch and watchIDS consume: a plain StreamClient or
// an auto-reconnecting StreamResilientTail, chosen by -reconnect.
type eventSource interface {
	Recv() (wire.Event, error)
	Close() error
}

// watch prints the raw event stream. Without -reconnect, a server that
// vanishes mid-tail is an error: the watcher exits nonzero with a summary
// of what it saw, so a supervising script knows the tail is incomplete.
func watch(out io.Writer, dial func() (eventSource, error), format string, limit int, reconnect bool) error {
	client, err := dial()
	if err != nil {
		return err
	}
	defer client.Close()

	print, flush, err := recordPrinter(out, format)
	if err != nil {
		return err
	}
	defer flush()

	n := 0
	var seen, lastSeq, drops uint64
	for {
		ev, err := client.Recv()
		if err != nil {
			if err == io.EOF && reconnect {
				// Only the resilient tail returns io.EOF here, and only
				// after Close: the watcher asked to stop, not the server.
				return nil
			}
			return fmt.Errorf("stream ended: %w (%d records seen, last seq %d, %d dropped)",
				err, seen, lastSeq, drops)
		}
		switch ev.Kind {
		case wire.EventSnapshotEnd:
			if format == "text" {
				fmt.Fprintln(out, "--- snapshot complete, following live ---")
			}
			continue
		case wire.EventResumeGap:
			if format == "text" {
				fmt.Fprintf(out, "--- resume gap: %d records lost to retention, re-snapshotting ---\n", ev.Gap)
			}
			continue
		case wire.EventTrace:
			seen++
			lastSeq = ev.Record.Seq
			drops += ev.Dropped
			if err := print(*ev.Record, ev.Dropped); err != nil {
				return err
			}
		case wire.EventPower:
			if format == "text" {
				s := ev.Sample
				fmt.Fprintf(out, "power %s  j0..j5 current %.3f %.3f %.3f %.3f %.3f %.3f\n",
					s.Time.Format("15:04:05.000"),
					s.JointCurrent(0), s.JointCurrent(1), s.JointCurrent(2),
					s.JointCurrent(3), s.JointCurrent(4), s.JointCurrent(5))
			}
		default:
			continue
		}
		n++
		if limit > 0 && n >= limit {
			return nil
		}
	}
}

// recordPrinter returns a per-record emit function for the chosen format.
func recordPrinter(out io.Writer, format string) (func(store.Record, uint64) error, func() error, error) {
	switch format {
	case "text":
		return func(r store.Record, dropped uint64) error {
			line := fmt.Sprintf("%6d  %s  %-28s run=%s", r.Seq, r.Time.Format("15:04:05.000"), r.Key(), orDash(r.Run))
			if r.Exception != "" {
				line += "  EXC " + r.Exception
			}
			if dropped > 0 {
				line += fmt.Sprintf("  [%d dropped]", dropped)
			}
			_, err := fmt.Fprintln(out, line)
			return err
		}, func() error { return nil }, nil
	case "jsonl":
		w := store.NewJSONLWriter(out)
		return func(r store.Record, _ uint64) error { return w.Append(r) }, w.Flush, nil
	case "csv":
		w := store.NewCSVWriter(out)
		return func(r store.Record, _ uint64) error { return w.Append(r) }, w.Flush, nil
	default:
		return nil, nil, fmt.Errorf("unknown -format %q", format)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// trainDetector fits the perplexity model on the benign runs in a JSONL
// trace export, one training sequence per run label.
func trainDetector(path string, order int) (*ids.PerplexityDetector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := store.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	return detectorFromRecords(recs, order)
}

// detectorFromRecords groups records into per-run command sequences
// (collection order) and trains an order-n detector on them.
func detectorFromRecords(recs []store.Record, order int) (*ids.PerplexityDetector, error) {
	byRun := make(map[string][]string)
	var runOrder []string
	for _, r := range recs {
		run := r.Run
		if run == "" {
			run = "(unsupervised)"
		}
		if _, ok := byRun[run]; !ok {
			runOrder = append(runOrder, run)
		}
		byRun[run] = append(byRun[run], r.Name)
	}
	seqs := make([][]string, 0, len(runOrder))
	for _, run := range runOrder {
		seqs = append(seqs, byRun[run])
	}
	return ids.TrainPerplexity(seqs, order)
}

// watchIDS runs the online detector over the stream and emits alerts.
func watchIDS(out io.Writer, dial func() (eventSource, error), det *ids.PerplexityDetector,
	window int, withRules bool, format string, limit int) error {
	emit, flush, err := alertPrinter(out, format)
	if err != nil {
		return err
	}
	defer flush()

	cfg := stream.IDSConfig{Detector: det, Window: window, OnAlert: func(a stream.Alert) {
		if err := emit(a); err != nil {
			fmt.Fprintln(os.Stderr, "radwatch: emit alert:", err)
		}
	}}
	if withRules {
		cfg.Rules = ids.NewRuleEngine(0)
	}
	online, err := stream.NewIDS(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "radwatch: online IDS armed, window threshold %.3f\n", online.Threshold())

	client, err := dial()
	if err != nil {
		return err
	}
	defer client.Close()

	n := 0
	for {
		ev, err := client.Recv()
		if err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		if ev.Kind != wire.EventTrace {
			continue
		}
		online.Observe(*ev.Record)
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "radwatch: %d records observed, %d alerts\n", online.Processed(), len(online.Alerts()))
	return nil
}

// alertPrinter returns a per-alert emit function. Text mode shares the JSONL
// shape: alerts are structured records, not log lines.
func alertPrinter(out io.Writer, format string) (func(stream.Alert) error, func() error, error) {
	switch format {
	case "text", "jsonl":
		enc := json.NewEncoder(out)
		return func(a stream.Alert) error { return enc.Encode(a) }, func() error { return nil }, nil
	case "csv":
		w := csv.NewWriter(out)
		if err := w.Write([]string{"seq", "time", "source", "device", "key", "score", "threshold", "jenksBreak", "detail"}); err != nil {
			return nil, nil, err
		}
		return func(a stream.Alert) error {
				return w.Write([]string{
					strconv.FormatUint(a.Seq, 10), a.Time.Format("2006-01-02T15:04:05.000Z07:00"),
					a.Source, a.Device, a.Key,
					strconv.FormatFloat(a.Score, 'f', 4, 64),
					strconv.FormatFloat(a.Threshold, 'f', 4, 64),
					strconv.FormatFloat(a.JenksBreak, 'f', 4, 64),
					a.Detail,
				})
			}, func() error {
				w.Flush()
				return w.Error()
			}, nil
	default:
		return nil, nil, fmt.Errorf("unknown -format %q", format)
	}
}
