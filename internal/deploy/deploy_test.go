package deploy

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"rad/internal/stream"
	"rad/internal/wire"
)

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestStartFailureClosesWhatItBuilt: the exec listener binds last, so a
// Start whose exec address is taken has already opened the store and an
// export and bound the stream and telemetry listeners. It must release all
// of them before it returns the error.
func TestStartFailureClosesWhatItBuilt(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dir := t.TempDir()
	cfg := Config{
		Listen: taken.Addr().String(), StoreDir: filepath.Join(dir, "store"),
		TracePath: filepath.Join(dir, "trace.jsonl"), StreamAddr: freeAddr(t), ObsAddr: freeAddr(t),
	}
	if d, err := Start(cfg); err == nil {
		d.Close()
		t.Fatal("Start on a taken exec address succeeded")
	}
	for _, addr := range []string{cfg.StreamAddr, cfg.ObsAddr} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("%s still bound after the failed Start: %v", addr, err)
			continue
		}
		ln.Close()
	}

	// With the exec address free, the same Config starts.
	taken.Close()
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainReportsWhileSubscribersAttached: Drain runs report after the
// exec listener stops and before the stream listener drains, so the
// report still sees the live subscriber that the stream drain detaches.
func TestDrainReportsWhileSubscribersAttached(t *testing.T) {
	d, err := Start(Config{Listen: "127.0.0.1:0", StreamAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sub, err := stream.Dial(d.Addrs.Stream, wire.Subscribe{Name: "watcher"})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for deadline := time.Now().Add(5 * time.Second); len(d.Core.Snapshot().Subscribers) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never attached")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var reported int
	severed, err := d.Drain(ctx, func() {
		if !d.mbox.Draining() {
			t.Error("report ran before the exec listener stopped")
		}
		reported = len(d.Core.Snapshot().Subscribers)
	})
	if severed != nil || err != nil {
		t.Fatalf("Drain: severed %v, err %v", severed, err)
	}
	if reported != 1 {
		t.Errorf("report saw %d subscribers, want 1", reported)
	}
	if n := len(d.Core.Snapshot().Subscribers); n != 0 {
		t.Errorf("%d subscribers attached after Drain, want 0", n)
	}
}
