package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
)

// startStream serves a broker (with optional snapshot store) for the CLI to
// dial.
func startStream(t *testing.T, db *tracedb.DB) (*stream.Broker, string) {
	t.Helper()
	broker := stream.NewBroker()
	srv := stream.NewServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); broker.Close() })
	return broker, addr
}

func publishUntil(t *testing.T, broker *stream.Broker, stop chan struct{}) {
	t.Helper()
	go func() {
		var seq uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			broker.Publish(store.Record{Seq: seq, Device: "C9", Name: "MVNG",
				Time: time.Unix(int64(seq), 0), Run: "r1"})
			seq++
			time.Sleep(time.Millisecond)
		}
	}()
}

func TestWatchLiveTailText(t *testing.T) {
	broker, addr := startStream(t, nil)
	stop := make(chan struct{})
	defer close(stop)
	publishUntil(t, broker, stop)

	var out bytes.Buffer
	err := run([]string{"-addr", addr, "-limit", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("printed %d lines, want 3:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "C9.MVNG") {
		t.Errorf("line lacks command key: %q", lines[0])
	}
}

func TestWatchJSONLOutput(t *testing.T) {
	broker, addr := startStream(t, nil)
	stop := make(chan struct{})
	defer close(stop)
	publishUntil(t, broker, stop)

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-limit", "2", "-format", "jsonl"}, &out); err != nil {
		t.Fatal(err)
	}
	recs, err := store.ReadJSONL(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
}

func TestWatchSnapshotReplaysStore(t *testing.T) {
	dir := t.TempDir()
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		if err := db.Append(store.Record{Device: "UR3e", Name: "movej"}); err != nil {
			t.Fatal(err)
		}
	}
	broker, addr := startStream(t, db)
	broker.AttachStore(db)

	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-snapshot", "-limit", "5", "-format", "jsonl"}, &out); err != nil {
		t.Fatal(err)
	}
	recs, err := store.ReadJSONL(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("snapshot replayed %d records, want 5", len(recs))
	}
}

func TestWatchIDSEmitsAlerts(t *testing.T) {
	// Train on a repetitive benign run, then stream commands the model has
	// never seen: the online IDS must emit perplexity alerts as JSONL.
	trainPath := filepath.Join(t.TempDir(), "train.jsonl")
	f, err := os.Create(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewJSONLWriter(f)
	pattern := []string{"HOME", "MVNG", "GRIP", "RLSE"}
	for i := 0; i < 80; i++ {
		if err := w.Append(store.Record{Device: "C9", Name: pattern[i%len(pattern)], Run: "benign"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	broker, addr := startStream(t, nil)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		weird := []string{"ZAP", "QUX", "ZAP", "BLORT"}
		var seq uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			broker.Publish(store.Record{Seq: seq, Device: "C9", Name: weird[seq%4]})
			seq++
			time.Sleep(time.Millisecond)
		}
	}()

	var out bytes.Buffer
	err = run([]string{"-addr", addr, "-ids", "-train", trainPath, "-window", "8", "-limit", "60"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("IDS mode emitted no alerts for a stream of unknown commands")
	}
	var alert stream.Alert
	if err := json.Unmarshal([]byte(lines[0]), &alert); err != nil {
		t.Fatalf("alert is not JSON: %v\n%s", err, lines[0])
	}
	if alert.Source != "perplexity" || alert.Score <= alert.Threshold {
		t.Errorf("unexpected alert: %+v", alert)
	}
}

func TestWatchRequiresAddr(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("no -addr accepted")
	}
	if err := run([]string{"-addr", "x", "-ids"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-ids without -train accepted")
	}
}

// TestWatchVanishedServerExitsNonzero: a server that dies mid-tail is an
// error, not a silent exit 0 — the summary line reports what the watcher
// saw so a supervising script knows the tail is incomplete.
func TestWatchVanishedServerExitsNonzero(t *testing.T) {
	broker := stream.NewBroker()
	srv := stream.NewServer(broker, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() { done <- run([]string{"-addr", addr}, &out) }()

	// Two records, then the server vanishes under the watcher.
	waitForPublished(t, broker, func() {
		broker.Publish(store.Record{Seq: 0, Device: "C9", Name: "MVNG", Time: time.Unix(0, 0)})
		broker.Publish(store.Record{Seq: 1, Device: "C9", Name: "MVNG", Time: time.Unix(1, 0)})
	})
	srv.Close()
	broker.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("watcher exited 0 after the server vanished mid-tail")
		}
		msg := err.Error()
		if !strings.Contains(msg, "stream ended") || !strings.Contains(msg, "records seen") {
			t.Fatalf("summary line missing from error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never exited")
	}
}

// waitForPublished runs publish once the watcher's subscription is live,
// so the records cannot race the subscribe handshake.
func waitForPublished(t *testing.T, broker *stream.Broker, publish func()) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(broker.Stats()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	publish()
	// Give the ring a moment to flush to the client before the kill.
	time.Sleep(50 * time.Millisecond)
}

// TestWatchReconnectSurvivesRestart: with -reconnect the watcher rides
// through a listener restart and keeps printing, resuming its tail.
func TestWatchReconnectSurvivesRestart(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	srv := stream.NewServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{"-addr", addr, "-reconnect", "-snapshot", "-policy", "block", "-limit", "6"}, &out)
	}()

	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(3)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := stream.NewServer(broker, db)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	appendN(3)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reconnecting watcher failed: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reconnecting watcher never finished")
	}
	var traces int
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.Contains(line, "C9.MVNG") {
			traces++
		}
	}
	if traces != 6 {
		t.Fatalf("watcher printed %d trace lines, want 6:\n%s", traces, out.String())
	}
}
