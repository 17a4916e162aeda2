package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rad/internal/procedure"
	"rad/internal/tracedb"
)

// writeJoystickStore persists a small joystick trace into a tracedb
// directory and returns the directory.
func writeJoystickStore(t *testing.T) string {
	t.Helper()
	lab, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	procedure.RunJoystick(lab.Lab, procedure.Options{Run: "j", Seed: 3, Presses: 6})
	dir := filepath.Join(t.TempDir(), "tracedb")
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendBatch(lab.Sink.All()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_ = lab.Close()
	return dir
}

// TestReplayFromTraceDB persists a small seeded trace into a tracedb
// directory and replays it from there against the local deployment — the
// persisted-campaign round trip. The replayed line is pinned: the devices
// are seeded and the replay is serial, so only the timings vary.
func TestReplayFromTraceDB(t *testing.T) {
	dir := writeJoystickStore(t)
	var out strings.Builder
	if err := run([]string{"-store", dir, "-device", "C9", "-limit", "15", "-network", "none"}, &out); err != nil {
		t.Fatalf("replay from tracedb: %v", err)
	}
	const want = "\nreplayed 15 commands (0 device errors from state divergence)\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
}

// TestReplayRequiresTrace: the replay source is a tracedb directory that
// already holds a store. A missing -store, the retired -trace flag, and a
// path holding no store are refused, and the refusal names the path and
// creates nothing there.
func TestReplayRequiresTrace(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing -store accepted")
	}
	if err := run([]string{"-trace", "x.jsonl"}, io.Discard); err == nil {
		t.Error("retired -trace flag accepted")
	}
	empty := t.TempDir()
	missing := filepath.Join(t.TempDir(), "nosuchdir")
	for _, dir := range []string{missing, empty} {
		err := run([]string{"-store", dir, "-network", "none"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("-store %s: %v, want an error naming the path", dir, err)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("refused -store created %s (stat: %v)", missing, err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Errorf("refused -store left %d files in %s", len(entries), empty)
	}
}

// TestReplayRejectsUnknownNetwork: the local middlebox's -network names a
// profile, and a name that is none of lan, cloud and none is refused.
func TestReplayRejectsUnknownNetwork(t *testing.T) {
	dir := writeJoystickStore(t)
	err := run([]string{"-store", dir, "-network", "carrier-pigeon"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Errorf("-network carrier-pigeon: %v, want an error naming the profile", err)
	}
}

func TestReplayRejectsEmptyFilterResult(t *testing.T) {
	dir := writeJoystickStore(t)
	err := run([]string{"-store", dir, "-device", "Quantos", "-network", "none"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no records match") {
		t.Errorf("empty replay set: %v, want a no-records error", err)
	}
}
