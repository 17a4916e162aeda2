package rad_test

// The session-resilience chaos harness: the stream listener is killed and
// restarted mid-campaign while a fleet of auto-reconnecting tails consumes
// the trace feed. Every tail must observe every record exactly once — no
// gaps across the outage, no duplicates from the resume replay — and the
// whole run must be byte-reproducible per seed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"rad"
)

// chaosTailCount is the fleet size; the acceptance floor is eight
// resilient tails riding through the restart.
const chaosTailCount = 8

// runChaosKillRestart runs one full campaign: total records appended to a
// persistent store behind a live broker, the stream listener hard-killed
// at the midpoint and restarted on the same address. It returns one
// content digest per tail, computed over the exact delivery order.
func runChaosKillRestart(t *testing.T, seed uint64, total int) []string {
	t.Helper()
	db, err := rad.OpenTraceDB(t.TempDir(), rad.TraceDBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := rad.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)

	srv := rad.NewStreamServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	digests := make([]string, chaosTailCount)
	errs := make([]error, chaosTailCount)
	var wg sync.WaitGroup
	for i := 0; i < chaosTailCount; i++ {
		tail := rad.NewStreamResilientTail(rad.StreamResilientConfig{
			Addr: addr,
			Subscribe: rad.StreamSubscribe{
				Name: fmt.Sprintf("chaos-%d", i), Snapshot: true, Policy: rad.StreamPolicyBlock,
			},
			Seed:        seed + uint64(i),
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
		})
		wg.Add(1)
		go func(i int, tail *rad.StreamResilientTail) {
			defer wg.Done()
			defer tail.Close()
			h := sha256.New()
			next := uint64(0)
			for next < uint64(total) {
				ev, err := tail.Recv()
				if err != nil {
					errs[i] = fmt.Errorf("tail %d after seq %d: %w", i, next, err)
					return
				}
				if ev.Kind != rad.StreamEventTrace {
					continue // snapshot-end and resume-gap markers pass through
				}
				// Exactly once, in order: the resilient tail's contract.
				if ev.Record.Seq != next {
					errs[i] = fmt.Errorf("tail %d: seq %d delivered, want %d", i, ev.Record.Seq, next)
					return
				}
				fmt.Fprintf(h, "%d|%s|%s|%s\n", ev.Record.Seq, ev.Record.Device, ev.Record.Name, ev.Record.Run)
				next++
			}
			st := tail.Stats()
			if st.Delivered != uint64(total) || st.GapRecords != 0 {
				errs[i] = fmt.Errorf("tail %d stats %+v, want %d delivered with no gaps", i, st, total)
				return
			}
			digests[i] = hex.EncodeToString(h.Sum(nil))
		}(i, tail)
	}

	appendRange := func(lo, hi int) {
		t.Helper()
		for n := lo; n < hi; n++ {
			if err := db.Append(rad.TraceRecord{
				Device: "C9", Name: fmt.Sprintf("CMD-%d", n), Run: "chaos",
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	kill := total / 2
	appendRange(0, kill)
	// Durability point, then the outage: flush so the resume snapshot can
	// see everything appended while the listener is down, hard-kill the
	// listener mid-campaign, keep appending into the darkness, restart on
	// the same address. The tails must stitch the two halves seamlessly.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	appendRange(kill, total*3/4)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	srv2 := rad.NewStreamServer(broker, db)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	appendRange(total*3/4, total)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos tails never finished")
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return digests
}

// TestReconnectChaosKillRestartExactlyOnce: the full acceptance scenario —
// eight resilient tails through a mid-campaign listener kill and
// restart; every tail sees [0, total) exactly once, every tail's digest
// matches every other's, and a rerun with the same seed reproduces the
// digests byte for byte.
func TestReconnectChaosKillRestartExactlyOnce(t *testing.T) {
	total := 400
	if testing.Short() {
		total = 120
	}
	first := runChaosKillRestart(t, 42, total)
	for i, d := range first {
		if d == "" {
			t.Fatalf("tail %d produced no digest", i)
		}
		if d != first[0] {
			t.Fatalf("tail %d digest %s != tail 0 digest %s — tails disagree on the record stream", i, d, first[0])
		}
	}
	second := runChaosKillRestart(t, 42, total)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("tail %d digest changed across same-seed reruns:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}
