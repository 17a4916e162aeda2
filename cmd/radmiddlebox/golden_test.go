package main

// The labs radmiddlebox builds from -seed, pinned. Every seeded part of a
// lab shows in what it stores: the five device seeds in the replies' noise,
// the fault wrappers' seeds in which replies come back garbled, and the
// flaky sink's seed in which records spill to the dead-letter queue. A
// change to how a lab is assembled that moves any of those seeds changes
// this golden.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rad/internal/device"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracer"
	"rad/internal/wire"
)

// goldenCommands is the sequence each lab runs. Every reply depends on the
// lab's seeds and none on wall time: no command starts a motion or a
// timed operation that a later command would observe (a dose sleeps
// through its own 20 ms). The C9's currents, the IKA's readings and the
// Quantos' dose carry their devices' noise.
var goldenCommands = []device.Command{
	{Device: device.C9, Name: device.Init},
	{Device: device.C9, Name: "CURR", Args: []string{"0"}},
	{Device: device.C9, Name: "POSN", Args: []string{"0"}},
	{Device: device.C9, Name: "MVNG"},
	{Device: device.C9, Name: "CURR", Args: []string{"1"}},
	{Device: device.C9, Name: "SPED", Args: []string{"20"}},
	{Device: device.C9, Name: "CURR", Args: []string{"2"}},
	{Device: device.IKA, Name: device.Init},
	{Device: device.IKA, Name: "IN_NAME"},
	{Device: device.IKA, Name: "IN_PV_2"},
	{Device: device.IKA, Name: "IN_PV_4"},
	{Device: device.IKA, Name: "IN_PV_2"},
	{Device: device.Tecan, Name: device.Init},
	{Device: device.Tecan, Name: "Q"},
	{Device: device.Quantos, Name: device.Init},
	{Device: device.Quantos, Name: "zero"},
	{Device: device.Quantos, Name: "target_mass", Args: []string{"0.05"}},
	{Device: device.Quantos, Name: "lock_dosing_pin_position"},
	{Device: device.Quantos, Name: "start_dosing"},
	{Device: device.UR3e, Name: device.Init},
	{Device: device.UR3e, Name: "open_gripper"},
	{Device: device.UR3e, Name: "close_gripper"},
	{Device: device.C9, Name: "CURR", Args: []string{"3"}},
	{Device: device.IKA, Name: "IN_PV_4"},
}

const seededLabsGolden = `lab default: spilled at [4 5 7 9 10 11 12 13 15 19 23]
  0 C9 __init__ [] "ok" ""
  1 C9 CURR [0] "" "C9: injected fault: garbled response (0.1h0)"
  2 C9 POSN [0] "0.00" ""
  3 C9 MVNG [] "0 0 0 0" ""
  4 C9 CURR [2] "" "C9: injected fault: garbled response (0.11c)"
  5 IKA IN_NAME [] "C-MAG HS7" ""
  6 Quantos __init__ [] "ok" ""
  7 Quantos target_mass [0.05] "" "Quantos: injected fault: garbled response (5k)"
  8 Quantos lock_dosing_pin_position [] "ok" ""
  9 Quantos start_dosing [] "" "Quantos: injected fault: garbled response (0.j51)"
  10 UR3e open_gripper [] "ok" ""
  11 UR3e close_gripper [] "ok" ""
  12 C9 CURR [3] "0.119" ""
lab lab-a: spilled at [0 3 7 8 10 11 12 14 15 17 20 21]
  0 C9 CURR [0] "0.097" ""
  1 C9 POSN [0] "0.00" ""
  2 C9 CURR [1] "0.135" ""
  3 C9 SPED [20] "" "C9: injected fault: garbled response (5k)"
  4 C9 CURR [2] "0.139" ""
  5 IKA IN_PV_2 [] "22.0" ""
  6 Tecan Q [] "" "Tecan: injected fault: garbled response (:)"
  7 Quantos target_mass [0.05] "" "Quantos: injected fault: garbled response (o1)"
  8 Quantos start_dosing [] "0.050" ""
  9 UR3e __init__ [] "" "UR3e: injected fault: garbled response (o1)"
  10 C9 CURR [3] "" "C9: injected fault: garbled response (0.11c)"
  11 IKA IN_PV_4 [] "0" ""
lab lab-b: spilled at [4 7 8 9 11 12 13 15 17 18 22 23]
  0 C9 __init__ [] "ok" ""
  1 C9 CURR [0] "0.070" ""
  2 C9 POSN [0] "" "C9: injected fault: garbled response (0.j0)"
  3 C9 MVNG [] "0 0 0 0" ""
  4 C9 SPED [20] "ok" ""
  5 C9 CURR [2] "0.105" ""
  6 IKA IN_PV_4 [] "" "IKA: injected fault: garbled response (j)"
  7 Quantos __init__ [] "ok" ""
  8 Quantos target_mass [0.05] "ok" ""
  9 UR3e __init__ [] "ok" ""
  10 UR3e open_gripper [] "ok" ""
  11 UR3e close_gripper [] "ok" ""
`

// TestSeededLabsGolden serves the default lab and two fleet tenants under
// a fault profile that sleeps nowhere (half the sink appends fail, three
// replies in ten come back garbled), runs goldenCommands on each lab, and
// pins each lab's stored (device, name, response, exception) and the
// positions in goldenCommands of the records that spilled to its
// dead-letter directory: dlq/ for the default lab, dlq/tenants/<id>/ for a
// tenant. The default lab's store is read from its tracedb after shutdown,
// a tenant's from its live stream, subscribed to before any lab runs.
func TestSeededLabsGolden(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	dlqDir := filepath.Join(dir, "dlq")
	addr, streamAddr, stop := bootStreaming(t, "-seed", "7", "-fleet", "-tenants", "4",
		"-store", storeDir, "-dlq", dlqDir, "-trace", "",
		"-fault-profile", "none,sink=0.5,garble=0.3")

	tenants := []string{"lab-a", "lab-b"}
	tails := make(map[string]*stream.Client)
	for _, id := range tenants {
		c, err := stream.Dial(streamAddr, wire.Subscribe{Name: "golden", Tenant: id, Policy: wire.PolicyBlock, Buffer: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tails[id] = c
	}

	tr, err := tracer.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spilled := make(map[string][]int)
	for _, lab := range append([]string{""}, tenants...) {
		labDLQ := dlqDir
		if lab != "" {
			labDLQ = filepath.Join(dlqDir, "tenants", lab)
		}
		for i, cmd := range goldenCommands {
			before := countSpills(t, labDLQ)
			if _, err := tr.RoundTrip(wire.Request{ID: uint64(i + 1), Op: wire.OpExec, Tenant: lab,
				Device: cmd.Device, Name: cmd.Name, Args: cmd.Args}); err != nil {
				t.Fatalf("lab %q command %d: %v", lab, i, err)
			}
			if countSpills(t, labDLQ) > before {
				spilled[lab] = append(spilled[lab], i)
			}
		}
	}

	stored := make(map[string][]store.Record)
	for _, id := range tenants {
		for len(stored[id]) < len(goldenCommands)-len(spilled[id]) {
			ev, err := tails[id].Recv()
			if err != nil {
				t.Fatalf("tenant %s stream: %v", id, err)
			}
			if ev.Kind == wire.EventTrace {
				stored[id] = append(stored[id], *ev.Record)
			}
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stored[""] = readStore(t, storeDir)

	var b strings.Builder
	for _, lab := range append([]string{""}, tenants...) {
		name := lab
		if name == "" {
			name = "default"
		}
		fmt.Fprintf(&b, "lab %s: spilled at %v\n", name, spilled[lab])
		for _, r := range stored[lab] {
			fmt.Fprintf(&b, "  %d %s %s %v %q %q\n", r.Seq, r.Device, r.Name, r.Args, r.Response, r.Exception)
		}
	}
	if got := b.String(); got != seededLabsGolden {
		t.Errorf("seeded labs differ from the golden:\n%s\nwant:\n%s", got, seededLabsGolden)
	}
}

// countSpills counts the spill files in a dead-letter directory; a
// directory not created yet holds none.
func countSpills(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "dlq-") {
			n++
		}
	}
	return n
}
