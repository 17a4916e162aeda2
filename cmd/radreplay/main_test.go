package main

import (
	"os"
	"path/filepath"
	"testing"

	"rad/internal/procedure"
	"rad/internal/store"
	"rad/internal/tracedb"
)

// TestReplayEndToEnd generates a small trace, writes it to JSONL, and
// replays the C9 portion against a fresh loopback middlebox.
func TestReplayEndToEnd(t *testing.T) {
	lab, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	procedure.RunJoystick(lab.Lab, procedure.Options{Run: "j", Seed: 3}, 6)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewJSONLWriter(f)
	for _, r := range lab.Sink.All() {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	_ = lab.Close()

	if err := run([]string{"-trace", path, "-device", "C9", "-limit", "15", "-network", "none"}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestReplayFromTraceDB persists a small trace into a tracedb directory and
// replays it from there — the persisted-campaign round trip.
func TestReplayFromTraceDB(t *testing.T) {
	lab, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	procedure.RunJoystick(lab.Lab, procedure.Options{Run: "j", Seed: 3}, 6)
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

	if err := run([]string{"-store", dir, "-device", "C9", "-limit", "15", "-network", "none"}); err != nil {
		t.Fatalf("replay from tracedb: %v", err)
	}
}

func TestReplayRequiresTrace(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -trace accepted")
	}
	if err := run([]string{"-trace", "x.jsonl", "-store", "d"}); err == nil {
		t.Error("both -trace and -store accepted")
	}
}

func TestReplayRejectsEmptyFilterResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", path}); err == nil {
		t.Error("empty trace accepted")
	}
}
