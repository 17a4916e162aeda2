// Command radreplay re-executes a recorded trace against a live middlebox
// and reports response-time statistics — the paper's footnote 1 made
// literal: "we … replayed the DIRECT mode joystick traces by emulating N9
// commands in the cloud server", which is how the Fig. 4 CLOUD numbers were
// produced.
//
// Usage:
//
//	radreplay -store DIR [-middlebox ADDR] [-device NAME] [-run LABEL] [-limit N]
//
// The replay source is a tracedb directory, so a campaign persisted by
// radgen or a live middlebox round-trips through the middlebox without an
// intermediate export. Device/run filters are pushed down into the store's
// indexed scan.
//
// With no -middlebox, radreplay starts radmiddlebox's deployment
// (internal/deploy) in process on a loopback port, with the requested
// network profile (-network lan|cloud|none), so a trace can be replayed
// against an emulated cloud deployment in one command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rad/internal/analysis/stats"
	"rad/internal/deploy"
	"rad/internal/device"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/tracer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radreplay:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("radreplay", flag.ContinueOnError)
	storeDir := fs.String("store", "", "tracedb directory to replay from (required)")
	mbAddr := fs.String("middlebox", "", "middlebox address (empty = spin one up locally)")
	network := fs.String("network", "cloud", "emulated network for the local middlebox: lan, cloud, none")
	devFilter := fs.String("device", "", "replay only this device's commands")
	runFilter := fs.String("run", "", "replay only this run's commands")
	limit := fs.Int("limit", 0, "replay at most N commands (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}

	// Filter and bound the replay set; the filters are pushed into the
	// store's indexed scan.
	db, err := tracedb.OpenExisting(*storeDir, tracedb.Options{})
	if err != nil {
		return err
	}
	total := db.Len()
	var replaySet []store.Record
	it := db.Scan(tracedb.Query{Device: *devFilter, Run: *runFilter})
	for it.Next() {
		replaySet = append(replaySet, it.Record())
		if *limit > 0 && len(replaySet) >= *limit {
			break
		}
	}
	err = it.Err()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(replaySet) == 0 {
		return fmt.Errorf("no records match the filters (store has %d records)", total)
	}

	addr := *mbAddr
	if addr == "" {
		profile, err := middlebox.ParseNetworkProfile(*network)
		if err != nil {
			return err
		}
		d, err := deploy.Start(deploy.Config{Listen: "127.0.0.1:0", Network: profile})
		if err != nil {
			return err
		}
		defer d.Close()
		addr = d.Addrs.Exec
		fmt.Fprintf(out, "local middlebox on %s (network=%s)\n", addr, *network)
	}

	transport, err := tracer.DialTCP(addr)
	if err != nil {
		return err
	}
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{
		DefaultMode: tracer.ModeRemote, Procedure: "replay",
	})
	defer sess.Close()

	devs := make(map[string]device.Device)
	latencies := make([]float64, 0, len(replaySet))
	inited := make(map[string]bool)
	errsSeen := 0
	for _, rec := range replaySet {
		dev, ok := devs[rec.Device]
		if !ok {
			dev, err = sess.Virtual(rec.Device)
			if err != nil {
				return err
			}
			devs[rec.Device] = dev
		}
		// Replays start from a cold device: inject an init if the trace
		// slice does not begin with one.
		if rec.Name != device.Init && !inited[rec.Device] {
			if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
				return fmt.Errorf("init %s: %w", rec.Device, err)
			}
			inited[rec.Device] = true
		}
		if rec.Name == device.Init {
			inited[rec.Device] = true
		}
		start := time.Now()
		_, execErr := dev.Exec(device.Command{Name: rec.Name, Args: rec.Args})
		latencies = append(latencies, float64(time.Since(start).Microseconds())/1000)
		if execErr != nil {
			// Device-state divergence during replay is expected (the
			// original run's context is gone); count and continue.
			errsSeen++
		}
	}

	box := stats.BoxStats(latencies)
	fmt.Fprintf(out, "replayed %d commands (%d device errors from state divergence)\n", len(replaySet), errsSeen)
	fmt.Fprintf(out, "response time (ms): min %.2f  Q1 %.2f  median %.2f  Q3 %.2f  max %.2f  mean %.2f  outliers %d\n",
		box.Min, box.Q1, box.Med, box.Q3, box.Max, box.Mean, len(box.Outliers))
	return nil
}
