package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rad/internal/deploy"
	"rad/internal/procedure"
	"rad/internal/store"
	"rad/internal/tracedb"
)

// startMiddlebox serves radmiddlebox's deployment over loopback TCP,
// logging to a tracedb store in a temporary directory.
func startMiddlebox(t *testing.T) *deploy.Deployment {
	t.Helper()
	d, err := deploy.Start(deploy.Config{Listen: "127.0.0.1:0", StoreDir: filepath.Join(t.TempDir(), "store")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// commands renders each record as its (device, name, args) triple.
func commands(recs []store.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Device + " " + r.Name + " " + strings.Join(r.Args, ",")
	}
	return out
}

// TestRadtraceJoystickAgainstLiveMiddlebox runs the CLI's joystick procedure
// against a served middlebox and checks the store holds, labelled P4, the
// commands the same seeded run issues on a virtual lab.
func TestRadtraceJoystickAgainstLiveMiddlebox(t *testing.T) {
	d := startMiddlebox(t)
	if err := run([]string{"-middlebox", d.Addrs.Exec, "-procedure", "P4", "-run", "cli-run", "-presses", "4", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	stored, err := d.DB.Collect(tracedb.Query{Run: "cli-run"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) == 0 {
		t.Fatal("no traces recorded")
	}
	for _, r := range stored {
		if r.Procedure != "P4" {
			t.Fatalf("record labelled %q", r.Procedure)
		}
	}

	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer vl.Close()
	res := procedure.Run(vl.Lab, procedure.Joystick, procedure.Options{Run: "cli-run", Presses: 4, Seed: 5})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, want := commands(stored), commands(vl.Sink.All()); !slices.Equal(got, want) {
		t.Errorf("stored %d commands, the virtual lab's run %d; first stored %q, first virtual %q",
			len(got), len(want), got[0], want[0])
	}
}

func TestRadtraceUnknownProcedure(t *testing.T) {
	d := startMiddlebox(t)
	err := run([]string{"-middlebox", d.Addrs.Exec, "-procedure", "P9"})
	if err == nil || !strings.Contains(err.Error(), `"P9"`) {
		t.Errorf("-procedure P9: %v, want an error naming it", err)
	}
}

func TestRadtraceUnreachableMiddlebox(t *testing.T) {
	if err := run([]string{"-middlebox", "127.0.0.1:1"}); err == nil {
		t.Error("unreachable middlebox accepted")
	}
}
