package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// TestMiddleboxServesAndFlushes boots the CLI middlebox, drives a client
// against it, stops it, and checks the trace file was flushed.
func TestMiddleboxServesAndFlushes(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	csvPath := filepath.Join(dir, "trace.csv")
	storeDir := filepath.Join(dir, "tracedb")

	listenReady = make(chan string, 1)
	defer func() { listenReady = nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-trace", tracePath, "-csv", csvPath,
			"-store", storeDir, "-network", "none",
		}, stop)
	}()

	var addr string
	select {
	case addr = <-listenReady:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}

	transport, err := tracer.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}

	// Both trace files carry the two commands.
	jf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	recs, err := store.ReadJSONL(jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("jsonl has %d records, want 2", len(recs))
	}
	cf, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	fromCSV, err := store.ReadCSV(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != 2 {
		t.Errorf("csv has %d records, want 2", len(fromCSV))
	}

	// The persistent store survives the shutdown and answers the same scan.
	db, err := tracedb.Open(storeDir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	persisted, err := db.Collect(tracedb.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 2 {
		t.Errorf("tracedb has %d records, want 2", len(persisted))
	}
	for i, r := range persisted {
		if r.Device != device.C9 || r.Seq != uint64(i) {
			t.Errorf("persisted record %d unexpected: %+v", i, r)
		}
	}
}

// TestMiddleboxStreamsLive boots the CLI with -stream, tails the listener
// while a client drives commands, and checks the watcher sees every record
// with the store's sequence numbers.
func TestMiddleboxStreamsLive(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")

	listenReady = make(chan string, 1)
	streamReady = make(chan string, 1)
	defer func() { listenReady, streamReady = nil, nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-stream", "127.0.0.1:0",
			"-store", storeDir, "-trace", "", "-network", "none",
		}, stop)
	}()

	var addr, streamAddr string
	for i := 0; i < 2; i++ {
		select {
		case addr = <-listenReady:
		case streamAddr = <-streamReady:
		case err := <-done:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never came up")
		}
	}

	watcher, err := stream.Dial(streamAddr, wire.Subscribe{
		Name: "test-watcher", Policy: wire.PolicyBlock, Buffer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	transport, err := tracer.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{device.Init, "MVNG", "MVNG"} {
		if _, err := dev.Exec(device.Command{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Close()

	// The watcher receives the three commands with tracedb's seq numbering.
	for want := uint64(0); want < 3; want++ {
		ev, err := watcher.Recv()
		if err != nil {
			t.Fatalf("stream recv %d: %v", want, err)
		}
		if ev.Kind != wire.EventTrace {
			t.Fatalf("event %d kind %q", want, ev.Kind)
		}
		if ev.Record.Seq != want || ev.Record.Device != device.C9 {
			t.Errorf("event %d: seq %d device %s", want, ev.Record.Seq, ev.Record.Device)
		}
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}
}

func TestMiddleboxRejectsBadNetwork(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if err := run([]string{"-network", "carrier-pigeon", "-trace", ""}, stop); err == nil {
		t.Error("bad network profile accepted")
	}
}

// TestMiddleboxDLQFailoverAcrossRestarts poisons the trace sinks with
// -fault-profile none,sink=1 so every append fails and spills to the
// dead-letter queue, then restarts the middlebox healthy against the same
// -store and -dlq and checks the spilled records were folded back in: the
// lab loses nothing across a sink outage plus a restart.
func TestMiddleboxDLQFailoverAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	dlqDir := filepath.Join(dir, "dlq")

	boot := func(profile string) (stop chan struct{}, done chan error, addr string) {
		t.Helper()
		listenReady = make(chan string, 1)
		stop = make(chan struct{})
		done = make(chan error, 1)
		go func() {
			done <- run([]string{
				"-listen", "127.0.0.1:0", "-trace", "", "-network", "none",
				"-store", storeDir, "-dlq", dlqDir,
				"-fault-profile", profile,
				"-exec-timeout", "30s", "-retries", "2", "-breaker-threshold", "3",
			}, stop)
		}()
		select {
		case addr = <-listenReady:
		case err := <-done:
			t.Fatalf("server exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never came up")
		}
		return stop, done, addr
	}
	shutdown := func(stop chan struct{}, done chan error) {
		t.Helper()
		close(stop)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server never shut down")
		}
	}
	drive := func(addr string, names ...string) {
		t.Helper()
		transport, err := tracer.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
		dev, err := sess.Virtual(device.C9)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if _, err := dev.Exec(device.Command{Name: name}); err != nil {
				t.Fatal(err)
			}
		}
		_ = sess.Close()
	}

	// Run 1: every sink append fails; both commands must dead-letter.
	stop, done, addr := boot("none,sink=1")
	drive(addr, device.Init, "MVNG")
	shutdown(stop, done)

	dlq, err := store.OpenDLQ(dlqDir)
	if err != nil {
		t.Fatal(err)
	}
	if files, err := dlq.Pending(); err != nil || len(files) != 2 {
		t.Fatalf("dlq pending = %v, %v; want 2 spill files", files, err)
	}

	// Run 2: healthy sinks; startup re-ingest folds the dead letters in,
	// and a fresh command lands directly.
	stop, done, addr = boot("")
	drive(addr, device.Init, "MVNG")
	shutdown(stop, done)

	if files, err := dlq.Pending(); err != nil || len(files) != 0 {
		t.Fatalf("dlq pending after restart = %v, %v; want none", files, err)
	}
	db, err := tracedb.Open(storeDir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs, err := db.Collect(tracedb.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered store has %d records, want 4 (2 re-ingested + 2 live)", len(recs))
	}
	for _, r := range recs {
		if r.Device != device.C9 {
			t.Errorf("unexpected record: %+v", r)
		}
	}
}
