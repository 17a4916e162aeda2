package main

import (
	"testing"

	"rad/internal/middlebox"
	"rad/internal/procedure"
	"rad/internal/simclock"
	"rad/internal/store"
)

// startMiddlebox brings up a full five-device middlebox over loopback TCP.
func startMiddlebox(t *testing.T) (addr string, sink *store.MemStore) {
	t.Helper()
	clock := simclock.Real{}
	sink = store.NewMemStore()
	core := middlebox.NewCore(clock, sink)
	for _, d := range procedure.NewDevices(clock, 0, nil).All() {
		core.Register(d)
	}
	srv := middlebox.NewServer(core, middlebox.NetworkProfile{}, 1)
	a, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return a, sink
}

// TestRadtraceJoystickAgainstLiveMiddlebox runs the CLI's joystick procedure
// against a real TCP middlebox and checks the traces landed.
func TestRadtraceJoystickAgainstLiveMiddlebox(t *testing.T) {
	addr, sink := startMiddlebox(t)
	if err := run([]string{"-middlebox", addr, "-procedure", "P4", "-run", "cli-run", "-presses", "4", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	recs := sink.ByRun("cli-run")
	if len(recs) == 0 {
		t.Fatal("no traces recorded")
	}
	for _, r := range recs {
		if r.Procedure != "P4" {
			t.Fatalf("record labelled %q", r.Procedure)
		}
	}
}

func TestRadtraceUnknownProcedure(t *testing.T) {
	addr, _ := startMiddlebox(t)
	if err := run([]string{"-middlebox", addr, "-procedure", "P9"}); err == nil {
		t.Error("unknown procedure accepted")
	}
}

func TestRadtraceUnreachableMiddlebox(t *testing.T) {
	if err := run([]string{"-middlebox", "127.0.0.1:1"}); err == nil {
		t.Error("unreachable middlebox accepted")
	}
}
