package main

// The sequencing sink is the middlebox's one commit point: each record is
// appended there once, and the trace exports are written from its commit
// hook. These tests pin what that buys: an export can neither race on,
// reorder, refuse nor duplicate a committed record.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"rad/internal/deploy"
	"rad/internal/device"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// bootMiddlebox serves the CLI with args (on an ephemeral port, no network
// profile) until the returned stop function is called; stop returns run's
// error.
func bootMiddlebox(t *testing.T, args ...string) (addr string, stop func() error) {
	t.Helper()
	addrs, stop := boot(t, args...)
	return addrs.Exec, stop
}

// bootStreaming is bootMiddlebox with a stream listener on an ephemeral
// port; it returns both bound addresses.
func bootStreaming(t *testing.T, args ...string) (addr, streamAddr string, stop func() error) {
	t.Helper()
	addrs, stop := boot(t, append([]string{"-stream", "127.0.0.1:0"}, args...)...)
	return addrs.Exec, addrs.Stream, stop
}

func boot(t *testing.T, args ...string) (deploy.Addrs, func() error) {
	t.Helper()
	ready = make(chan deploy.Addrs, 1)
	defer func() { ready = nil }()
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-listen", "127.0.0.1:0", "-network", "none"}, args...), quit)
	}()
	var addrs deploy.Addrs
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}
	return addrs, func() error {
		close(quit)
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("server never shut down")
		}
	}
}

// readStore returns every record in the tracedb at dir.
func readStore(t *testing.T, dir string) []store.Record {
	t.Helper()
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	recs, err := db.Collect(tracedb.Query{})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// readExport parses a JSONL or CSV trace export.
func readExport(t *testing.T, path string, parse func(f *os.File) ([]store.Record, error)) []store.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return recs
}

// TestConcurrentUploadsExportInCommitOrder: four DIRECT clients upload
// concurrently into a middlebox with a store and both exports. Each export
// must hold exactly the store's records, seq 0–799 in commit order — the
// exports are written from the store's commit hook, never from the
// connection goroutines.
func TestConcurrentUploadsExportInCommitOrder(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	tracePath := filepath.Join(dir, "trace.jsonl")
	csvPath := filepath.Join(dir, "trace.csv")
	addr, stop := bootMiddlebox(t, "-store", storeDir, "-trace", tracePath, "-csv", csvPath)

	const clients, uploads = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr, err := tracer.DialTCP(addr)
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			for i := 0; i < uploads; i++ {
				start := time.Date(2021, 9, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(c*uploads+i) * time.Millisecond)
				reply, err := tr.RoundTrip(wire.Request{ID: uint64(i + 1), Op: wire.OpTrace,
					Device: device.C9, Name: "MVNG", Args: []string{strconv.Itoa(c), strconv.Itoa(i)},
					Value: "ok", StartNanos: start.UnixNano(), EndNanos: start.Add(time.Microsecond).UnixNano()})
				if err == nil && reply.Error != "" {
					err = errors.New(reply.Error)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	stored := readStore(t, storeDir)
	if len(stored) != clients*uploads {
		t.Fatalf("store holds %d records, want %d", len(stored), clients*uploads)
	}
	exports := map[string][]store.Record{
		"jsonl": readExport(t, tracePath, func(f *os.File) ([]store.Record, error) { return store.ReadJSONL(f) }),
		"csv":   readExport(t, csvPath, func(f *os.File) ([]store.Record, error) { return store.ReadCSV(f) }),
	}
	for name, got := range exports {
		if len(got) != len(stored) {
			t.Fatalf("%s export holds %d records, store %d", name, len(got), len(stored))
		}
		for i, g := range got {
			w := stored[i]
			if g.Seq != uint64(i) || g.Seq != w.Seq || g.Time.UnixNano() != w.Time.UnixNano() ||
				g.EndTime.UnixNano() != w.EndTime.UnixNano() || g.Device != w.Device ||
				g.Name != w.Name || !reflect.DeepEqual(g.Args, w.Args) || g.Response != w.Response ||
				g.Procedure != w.Procedure || g.Mode != w.Mode {
				t.Fatalf("%s export record %d differs from the store:\n got  %+v\n want %+v", name, i, g, w)
			}
		}
	}
}

// TestFailingExportNeverDuplicatesStoredRecords: an export that cannot
// write (/dev/full) under -dlq must not make the failover sink spill
// records the store already committed. After a restart re-ingests the
// dead-letter queue, the store holds each acknowledged exec exactly once.
func TestFailingExportNeverDuplicatesStoredRecords(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	dlqDir := filepath.Join(dir, "dlq")

	const execs = 60
	addr, stop := bootMiddlebox(t, "-store", storeDir, "-dlq", dlqDir, "-trace", "/dev/full")
	transport, err := tracer.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < execs; i++ {
		name := "MVNG"
		if i == 0 {
			name = device.Init
		}
		if _, err := dev.Exec(device.Command{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Close()
	firstErr := stop()

	// Restart without the failing export: startup re-ingests any spills.
	_, stop = bootMiddlebox(t, "-store", storeDir, "-dlq", dlqDir, "-trace", "")
	if err := stop(); err != nil {
		t.Fatalf("restart shutdown: %v", err)
	}
	if n := len(readStore(t, storeDir)); n != execs {
		t.Errorf("store holds %d records after re-ingest, want %d", n, execs)
	}
	dlq, err := store.OpenDLQ(dlqDir)
	if err != nil {
		t.Fatal(err)
	}
	if files, err := dlq.Pending(); err != nil || len(files) != 0 {
		t.Errorf("dlq pending = %v, %v; want none", files, err)
	}
	// The export's write failures are counted and reported, not fatal.
	if firstErr != nil {
		t.Errorf("shutdown with a failing export: %v", firstErr)
	}
}
