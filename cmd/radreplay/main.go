// Command radreplay re-executes a recorded trace against a live middlebox
// and reports response-time statistics — the paper's footnote 1 made
// literal: "we … replayed the DIRECT mode joystick traces by emulating N9
// commands in the cloud server", which is how the Fig. 4 CLOUD numbers were
// produced.
//
// Usage:
//
//	radreplay -trace FILE.jsonl | -store DIR [-middlebox ADDR] [-device NAME] [-run LABEL] [-limit N]
//
// The replay source is either a JSONL export (-trace) or a persistent
// tracedb directory (-store), so a campaign persisted by radgen or a live
// middlebox round-trips through the middlebox without an intermediate
// export. Device/run filters are pushed down into the store's indexed scan.
//
// With no -middlebox, radreplay spins up an in-process middlebox over
// loopback TCP with the requested network profile (-network lan|cloud|none),
// so a trace can be replayed against an emulated cloud deployment in one
// command.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rad/internal/analysis/stats"
	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/ika"
	"rad/internal/device/quantos"
	"rad/internal/device/tecan"
	"rad/internal/device/ur3e"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/tracer"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radreplay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("radreplay", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "JSONL trace to replay")
	storeDir := fs.String("store", "", "tracedb directory to replay from (alternative to -trace)")
	mbAddr := fs.String("middlebox", "", "middlebox address (empty = spin one up locally)")
	network := fs.String("network", "cloud", "emulated network for the local middlebox: lan, cloud, none")
	devFilter := fs.String("device", "", "replay only this device's commands")
	runFilter := fs.String("run", "", "replay only this run's commands")
	limit := fs.Int("limit", 0, "replay at most N commands (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*tracePath == "") == (*storeDir == "") {
		return fmt.Errorf("exactly one of -trace or -store is required")
	}

	// Filter and bound the replay set. The tracedb path pushes the filters
	// into the store's indexed scan; the JSONL path filters in memory.
	var replaySet []store.Record
	total := 0
	if *storeDir != "" {
		db, err := tracedb.Open(*storeDir, tracedb.Options{})
		if err != nil {
			return err
		}
		total = db.Len()
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
	} else {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		records, err := store.ReadJSONL(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		total = len(records)
		for _, r := range records {
			if *devFilter != "" && r.Device != *devFilter {
				continue
			}
			if *runFilter != "" && r.Run != *runFilter {
				continue
			}
			replaySet = append(replaySet, r)
			if *limit > 0 && len(replaySet) >= *limit {
				break
			}
		}
	}
	if len(replaySet) == 0 {
		return fmt.Errorf("no records match the filters (trace has %d records)", total)
	}

	addr := *mbAddr
	if addr == "" {
		var profile middlebox.NetworkProfile
		switch *network {
		case "lan":
			profile = middlebox.LANProfile()
		case "cloud":
			profile = middlebox.CloudProfile()
		case "none":
		default:
			return fmt.Errorf("unknown network %q", *network)
		}
		clock := simclock.Real{}
		core := middlebox.NewCore(clock, nil)
		core.Register(c9.New(device.NewEnv(clock, 1)))
		core.Register(ur3e.New(device.NewEnv(clock, 2), nil))
		core.Register(ika.New(device.NewEnv(clock, 3)))
		core.Register(tecan.New(device.NewEnv(clock, 4)))
		core.Register(quantos.New(device.NewEnv(clock, 5)))
		srv := middlebox.NewServer(core, profile, 1)
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		addr = bound
		defer srv.Close()
		fmt.Printf("local middlebox on %s (network=%s)\n", addr, *network)
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
	fmt.Printf("replayed %d commands (%d device errors from state divergence)\n", len(replaySet), errsSeen)
	fmt.Printf("response time (ms): min %.2f  Q1 %.2f  median %.2f  Q3 %.2f  max %.2f  mean %.2f  outliers %d\n",
		box.Min, box.Q1, box.Med, box.Q3, box.Max, box.Mean, len(box.Outliers))
	return nil
}
