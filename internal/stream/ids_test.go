package stream_test

import (
	"io"
	"testing"
	"time"

	"rad/internal/attack"
	"rad/internal/ids"
	"rad/internal/procedure"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// benignP2Sequences runs the P2 workload in fresh virtual labs and returns
// the per-run command sequences — the online detector's training corpus.
func benignP2Sequences(t *testing.T, seeds ...uint64) [][]string {
	t.Helper()
	var seqs [][]string
	for _, seed := range seeds {
		vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		run := "train"
		procedure.RunSolubilityN9UR(vl.Lab, procedure.Options{Run: run, Seed: seed + 1})
		recs := vl.Sink.ByRun(run)
		seq := make([]string, len(recs))
		for i, r := range recs {
			seq[i] = r.Name
		}
		seqs = append(seqs, seq)
		vl.Close()
	}
	return seqs
}

func trainOnline(t *testing.T) *ids.PerplexityDetector {
	t.Helper()
	det, err := ids.TrainPerplexity(benignP2Sequences(t, 100, 101, 102, 103), 2)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestStreamIDSCleanRunRaisesNoAlerts drives a benign P2 run through a live
// middlebox with the online detector consuming the broker feed: the
// perplexity scorer must stay silent end to end.
func TestStreamIDSCleanRunRaisesNoAlerts(t *testing.T) {
	det := trainOnline(t)

	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer vl.Close()

	broker := stream.NewBroker()
	vl.Core.AttachBroker(broker)
	run := "clean-eval"
	sub := broker.Subscribe(stream.SubOptions{
		Filter: tracedb.Query{Run: run}, Buffer: 1 << 14, Policy: stream.Block,
	})

	res := procedure.RunSolubilityN9UR(vl.Lab, procedure.Options{Run: run, Seed: 201})
	if res.Err != nil {
		t.Fatalf("benign run failed: %v", res.Err)
	}
	broker.Close() // no more publishes; the detector drains the ring

	det2, err := stream.NewIDS(stream.IDSConfig{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for {
		ev, ok := sub.Recv()
		if !ok {
			break
		}
		if ev.Kind == stream.KindTrace {
			det2.Observe(ev.Record)
			n++
		}
	}
	if n == 0 {
		t.Fatal("online detector saw no records")
	}
	if alerts := det2.Alerts(); len(alerts) != 0 {
		t.Errorf("clean run raised %d alerts; first: %+v", len(alerts), alerts[0])
	}
	if det2.Processed() != n {
		t.Errorf("Processed = %d, observed %d", det2.Processed(), n)
	}
}

// TestStreamIDSDetectsInjectionOverStream is the online end-to-end
// acceptance: an Injection MITM attacks a live P2 run, the middlebox
// publishes every committed record, and the detector — consuming the feed
// over the TCP stream path, exactly as radwatch -ids does — must raise at
// least one perplexity alert with the scored window attached.
func TestStreamIDSDetectsInjectionOverStream(t *testing.T) {
	det := trainOnline(t)

	var interceptor *attack.Interceptor
	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{
		Seed: 300,
		WrapTransport: func(next tracer.Transport) tracer.Transport {
			interceptor = attack.New(next, attack.Config{
				Kind: attack.Injection, StartAfter: 20, Intensity: 0.5, Seed: 7,
			})
			return interceptor
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer vl.Close()

	broker := stream.NewBroker()
	defer broker.Close()
	vl.Core.AttachBroker(broker)
	srv := stream.NewServer(broker, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	run := "attacked-eval"
	client, err := stream.Dial(addr, wire.Subscribe{
		Name: "online-ids", Run: run, Policy: wire.PolicyBlock, Buffer: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	online, err := stream.NewIDS(stream.IDSConfig{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	// The detector consumes the TCP feed concurrently with the run, as a
	// real watcher would.
	readerDone := make(chan error, 1)
	go func() {
		for {
			ev, err := client.Recv()
			if err != nil {
				readerDone <- err
				return
			}
			if ev.Kind != wire.EventTrace {
				continue
			}
			online.Observe(*ev.Record)
		}
	}()

	procedure.RunSolubilityN9UR(vl.Lab, procedure.Options{Run: run, Seed: 301})
	if len(interceptor.Events()) == 0 {
		t.Fatal("the interceptor never attacked; the scenario proves nothing")
	}

	// Wait until every committed run record has crossed the wire, then shut
	// the stream down.
	expected := uint64(len(vl.Sink.ByRun(run)))
	waitFor(t, func() bool { return online.Processed() >= expected })
	srv.Close()
	if err := <-readerDone; err != io.EOF && err != nil {
		// The server closing the connection mid-read surfaces as a read
		// error on some platforms; either way the reader has everything.
		t.Logf("reader ended with: %v", err)
	}

	alerts := online.Alerts()
	if len(alerts) == 0 {
		t.Fatalf("injection attack raised no alerts over %d records (threshold %.3f)",
			online.Processed(), online.Threshold())
	}
	for _, a := range alerts {
		if a.Source != "perplexity" {
			continue
		}
		if a.Score <= a.Threshold {
			t.Errorf("alert score %.3f not above threshold %.3f", a.Score, a.Threshold)
		}
		if len(a.Window) == 0 {
			t.Error("perplexity alert carries no scored window")
		}
	}
	t.Logf("injection: %d alerts over %d records (threshold %.3f)",
		len(alerts), online.Processed(), online.Threshold())
}

// waitFor polls cond until it holds or a deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestStreamIDSRuleAlerts exercises the rule-engine side of the online
// detector on a synthetic feed: commands on an uninitialized device and
// commands outside the catalog must raise structured rule alerts.
func TestStreamIDSRuleAlerts(t *testing.T) {
	det, err := ids.TrainPerplexity([][]string{{"HOME", "MVNG", "GRIP", "MVNG", "HOME"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	online, err := stream.NewIDS(stream.IDSConfig{Detector: det, Rules: ids.NewRuleEngine()})
	if err != nil {
		t.Fatal(err)
	}

	alerts := online.Observe(store.Record{Seq: 1, Device: "C9", Name: "MVNG"})
	found := false
	for _, a := range alerts {
		if a.Source == "rule:uninitialized-device" {
			found = true
			if a.Seq != 1 || a.Device != "C9" {
				t.Errorf("rule alert misattributed: %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("no uninitialized-device rule alert in %+v", alerts)
	}

	alerts = online.Observe(store.Record{Seq: 2, Device: "C9", Name: "NOT_A_COMMAND"})
	found = false
	for _, a := range alerts {
		if a.Source == "rule:unknown-command" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no unknown-command rule alert in %+v", alerts)
	}
}

// TestStreamIDSOnAlertCallback checks the synchronous alert hook fires once
// per alert, after the alert is recorded.
func TestStreamIDSOnAlertCallback(t *testing.T) {
	det, err := ids.TrainPerplexity([][]string{{"A", "B", "A", "B", "A", "B"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var hooked []stream.Alert
	online, err := stream.NewIDS(stream.IDSConfig{
		Detector: det, Window: 4,
		OnAlert: func(a stream.Alert) { hooked = append(hooked, a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A run of never-seen commands drives the window perplexity far above
	// the calibrated threshold.
	for i, name := range []string{"A", "B", "Z", "Q", "Z", "Q", "Z", "Q"} {
		online.Observe(store.Record{Seq: uint64(i), Device: "C9", Name: name})
	}
	alerts := online.Alerts()
	if len(alerts) == 0 {
		t.Fatal("anomalous feed raised no alerts")
	}
	if len(hooked) != len(alerts) {
		t.Errorf("hook fired %d times for %d alerts", len(hooked), len(alerts))
	}
}
