// Command radfleet drives a multi-tenant fleet campaign: hundreds of
// independent lab middleboxes multiplexed behind one router, each lab on
// its own virtual clock with its own deterministic seed, all executing
// concurrently in one process.
//
// Usage:
//
//	radfleet [-tenants N] [-requests N] [-seed N] [-faults] [-dlq DIR] [-per-tenant] [-verify]
//
// With -faults (the default) every lab runs under the chaos fault profile
// with a flaky trace sink spilling to a per-tenant dead-letter queue; after
// the storm each lab is healed and its dead letters drained back, so the
// campaign must end with zero lost records — radfleet exits nonzero
// otherwise. -verify reruns the whole campaign and compares every tenant's
// record digest against the first run, checking the per-seed
// byte-reproducibility guarantee end to end.
//
// SIGINT/SIGTERM stops the storm gracefully: every lab still heals,
// drains its dead letters back, and digests, so even a partial campaign
// ends with its records accounted for.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rad/internal/fleet"
)

func main() {
	stop := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "radfleet:", err)
		os.Exit(1)
	}
}

// run drives the campaign; closing stop (main wires it to SIGINT/SIGTERM)
// stops the storm gracefully — every tenant still heals, drains its dead
// letters, and digests, so the partial campaign ends accountable.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("radfleet", flag.ContinueOnError)
	tenants := fs.Int("tenants", 64, "concurrent lab instances")
	requests := fs.Int("requests", 100, "commands per tenant after device init")
	seed := fs.Uint64("seed", 1, "campaign seed; each tenant's seed derives from it and the tenant's ID")
	faults := fs.Bool("faults", true, "run every lab under the chaos fault profile with per-tenant dead-letter failover")
	dlqRoot := fs.String("dlq", "", "root directory for per-tenant dead-letter queues (default: a temp dir, removed on exit)")
	perTenant := fs.Bool("per-tenant", false, "print one summary line per tenant")
	verify := fs.Bool("verify", false, "rerun the campaign and check every tenant's digest is byte-identical")
	if err := fs.Parse(args); err != nil {
		return err
	}

	root := *dlqRoot
	if root == "" && *faults {
		tmp, err := os.MkdirTemp("", "radfleet-dlq-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	// Each run gets its own DLQ namespace so a -verify rerun cannot drain
	// the first run's leftovers.
	runOnce := func(n int) (*fleet.CampaignResult, time.Duration, error) {
		cfg := fleet.CampaignConfig{
			Tenants:  *tenants,
			Requests: *requests,
			Seed:     *seed,
			Faults:   *faults,
		}
		if *faults {
			cfg.DLQRoot = filepath.Join(root, fmt.Sprintf("run-%d", n))
		}
		c, err := fleet.NewCampaign(cfg)
		if err != nil {
			return nil, 0, err
		}
		finished := make(chan struct{})
		go func() {
			select {
			case <-stop:
				c.Stop()
			case <-finished:
			}
		}()
		start := time.Now()
		res, err := c.Run()
		close(finished)
		return res, time.Since(start), err
	}

	res, elapsed, err := runOnce(1)
	if err != nil {
		return err
	}

	var spilled, drained uint64
	var stopped int
	for _, tr := range res.Tenants {
		spilled += tr.Spilled
		drained += tr.Drained
		if tr.Stopped {
			stopped++
		}
	}
	fmt.Fprintf(out, "fleet campaign: %d tenants x %d requests (seed %d, faults=%t) in %v\n",
		*tenants, *requests, *seed, *faults, elapsed.Round(time.Millisecond))
	if stopped > 0 {
		fmt.Fprintf(out, "  interrupted: %d tenants stopped mid-storm; every lab still healed, drained, and digested (partial campaign)\n", stopped)
	}
	fmt.Fprintf(out, "  routed %d requests, rejected %d; %d records stored, %d lost\n",
		res.Fleet.Routed, res.Fleet.Rejected, res.Records, res.Lost)
	if *faults {
		fmt.Fprintf(out, "  dead letters: %d records spilled through per-tenant queues, %d drained back\n",
			spilled, drained)
	}
	if *perTenant {
		for _, tr := range res.Tenants {
			fmt.Fprintf(out, "  %-10s %4d requests, %4d records, %3d spilled, lost %d, digest %s\n",
				tr.ID, tr.Requests, tr.Records, tr.Spilled, tr.Lost, tr.Digest[:12])
		}
	}

	if *verify && stopped > 0 {
		fmt.Fprintln(out, "  verify: skipped — an interrupted campaign's digests are not comparable to a full rerun")
	} else if *verify {
		res2, elapsed2, err := runOnce(2)
		if err != nil {
			return err
		}
		if len(res2.Tenants) != len(res.Tenants) {
			return fmt.Errorf("verify: rerun produced %d tenants, want %d", len(res2.Tenants), len(res.Tenants))
		}
		for i, tr := range res.Tenants {
			if got := res2.Tenants[i]; got.Digest != tr.Digest {
				return fmt.Errorf("verify: tenant %s digest changed across reruns:\n  %s\n  %s",
					tr.ID, tr.Digest, got.Digest)
			}
		}
		fmt.Fprintf(out, "  verify: rerun in %v, all %d tenant digests byte-identical\n",
			elapsed2.Round(time.Millisecond), len(res.Tenants))
	}

	if res.Lost > 0 {
		return fmt.Errorf("%d records lost across the fleet", res.Lost)
	}
	return nil
}
