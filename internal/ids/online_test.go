package ids_test

import (
	"io"
	"sync/atomic"
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

// TestOnlineCleanRunRaisesNoAlerts drives a benign P2 run through a live
// middlebox with the online detector consuming the broker feed: the
// perplexity scorer must stay silent end to end.
func TestOnlineCleanRunRaisesNoAlerts(t *testing.T) {
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

	online, err := ids.NewOnline(ids.OnlineConfig{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var alerts []ids.Alert
	for {
		ev, ok := sub.Recv()
		if !ok {
			break
		}
		if ev.Kind == stream.KindTrace {
			alerts = append(alerts, online.Observe(ev.Record)...)
			n++
		}
	}
	if want := len(vl.Sink.ByRun(run)); n != want {
		t.Fatalf("online detector saw %d records, the run committed %d", n, want)
	}
	if len(alerts) != 0 {
		t.Errorf("clean run raised %d alerts; first: %+v", len(alerts), alerts[0])
	}
}

// TestOnlineDetectsInjectionOverStream is the online end-to-end
// acceptance: an Injection MITM attacks a live P2 run, the middlebox
// publishes every committed record, and the detector — consuming the feed
// over the TCP stream path, exactly as radwatch -ids does — must raise at
// least one perplexity alert with the scored window attached.
func TestOnlineDetectsInjectionOverStream(t *testing.T) {
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
	waitFor(t, func() bool { return len(broker.Stats()) == 1 })

	online, err := ids.NewOnline(ids.OnlineConfig{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	// The detector consumes the TCP feed concurrently with the run, as a
	// real watcher would. Only the reader touches online and alerts until
	// it reports on readerDone.
	var observed atomic.Uint64
	var alerts []ids.Alert
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
			alerts = append(alerts, online.Observe(*ev.Record)...)
			observed.Add(1)
		}
	}()

	procedure.RunSolubilityN9UR(vl.Lab, procedure.Options{Run: run, Seed: 301})
	if len(interceptor.Events()) == 0 {
		t.Fatal("the interceptor never attacked; the scenario proves nothing")
	}

	// Wait until every committed run record has crossed the wire, then shut
	// the stream down.
	expected := uint64(len(vl.Sink.ByRun(run)))
	waitFor(t, func() bool { return observed.Load() >= expected })
	srv.Close()
	if err := <-readerDone; err != io.EOF && err != nil {
		// The server closing the connection mid-read surfaces as a read
		// error on some platforms; either way the reader has everything.
		t.Logf("reader ended with: %v", err)
	}

	if len(alerts) == 0 {
		t.Fatalf("injection attack raised no alerts over %d records (threshold %.3f)",
			observed.Load(), online.Threshold())
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
		len(alerts), observed.Load(), online.Threshold())
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

// TestOnlineRuleAlerts exercises the rule-engine side of the online
// detector on a synthetic feed: commands on an uninitialized device and
// commands outside the catalog must raise structured rule alerts.
func TestOnlineRuleAlerts(t *testing.T) {
	det, err := ids.TrainPerplexity([][]string{{"HOME", "MVNG", "GRIP", "MVNG", "HOME"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	online, err := ids.NewOnline(ids.OnlineConfig{Detector: det, Rules: ids.NewRuleEngine()})
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

// BenchmarkOnlineObserve measures per-record online detection latency —
// the streaming-IDS figure EXPERIMENTS.md records.
func BenchmarkOnlineObserve(b *testing.B) {
	train := make([][]string, 4)
	names := []string{"HOME", "MVNG", "GRIP", "RLSE", "ARM"}
	for i := range train {
		seq := make([]string, 400)
		for j := range seq {
			seq[j] = names[(i+j)%len(names)]
		}
		train[i] = seq
	}
	det, err := ids.TrainPerplexity(train, 2)
	if err != nil {
		b.Fatal(err)
	}
	online, err := ids.NewOnline(ids.OnlineConfig{Detector: det, Window: 32})
	if err != nil {
		b.Fatal(err)
	}
	r := store.Record{Device: "C9"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq = uint64(i)
		r.Name = names[i%len(names)]
		online.Observe(r)
	}
}
