package procedure

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/middlebox"
	"rad/internal/store"
)

func newLab(t *testing.T, withPower bool) *VirtualLab {
	t.Helper()
	vl, err := NewVirtualLab(VirtualLabConfig{Seed: 1, Network: middlebox.LANProfile(), WithPower: withPower})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := vl.Close(); err != nil {
			t.Errorf("close lab: %v", err)
		}
	})
	return vl
}

func devicesUsed(recs []store.Record) map[string]int {
	m := make(map[string]int)
	for _, r := range recs {
		m[r.Device]++
	}
	return m
}

func TestJoystickRunOnlyC9(t *testing.T) {
	vl := newLab(t, false)
	res := RunJoystick(vl.Lab, Options{Run: "run-0", Presses: 10})
	if res.Err != nil || res.Anomalous {
		t.Fatalf("joystick run failed: %+v", res)
	}
	recs := vl.Sink.ByRun("run-0")
	if len(recs) == 0 {
		t.Fatal("no traces recorded")
	}
	if len(recs) != res.Commands {
		t.Errorf("traced %d commands, result says %d", len(recs), res.Commands)
	}
	for _, r := range recs {
		if r.Device != device.C9 {
			t.Fatalf("joystick touched %s", r.Device)
		}
		if r.Procedure != Joystick {
			t.Fatalf("procedure label %q", r.Procedure)
		}
	}
}

func TestJoystickDominatedByArmAndMvng(t *testing.T) {
	vl := newLab(t, false)
	RunJoystick(vl.Lab, Options{Run: "run-0", Presses: 25})
	byCmd := make(map[string]int)
	for _, r := range vl.Sink.ByRun("run-0") {
		byCmd[r.Name]++
	}
	total := 0
	for _, n := range byCmd {
		total += n
	}
	if frac := float64(byCmd["ARM"]+byCmd["MVNG"]) / float64(total); frac < 0.7 {
		t.Errorf("ARM+MVNG fraction = %v, want > 0.7 (joystick streams)", frac)
	}
}

func TestSolubilityN9CompleteRun(t *testing.T) {
	vl := newLab(t, false)
	res := RunSolubilityN9(vl.Lab, Options{Run: "run-13", Solid: "CSTI"})
	if res.Err != nil || res.Anomalous {
		t.Fatalf("P1 run failed: %+v", res)
	}
	used := devicesUsed(vl.Sink.ByRun("run-13"))
	if used[device.C9] == 0 || used[device.Quantos] == 0 || used[device.Tecan] == 0 || used[device.IKA] == 0 {
		t.Errorf("P1 device usage = %v, want C9+Quantos+Tecan+IKA", used)
	}
	if used[device.UR3e] != 0 {
		t.Errorf("P1 must not use the UR3e, got %d commands", used[device.UR3e])
	}
}

func TestSolubilityN9URUsesUR3e(t *testing.T) {
	vl := newLab(t, true)
	res := RunSolubilityN9UR(vl.Lab, Options{Run: "run-19"})
	if res.Err != nil || res.Anomalous {
		t.Fatalf("P2 run failed: %+v", res)
	}
	used := devicesUsed(vl.Sink.ByRun("run-19"))
	if used[device.UR3e] == 0 {
		t.Error("P2 must use the UR3e")
	}
	if len(vl.Power()) == 0 {
		t.Error("P2 with power monitoring recorded no samples")
	}
}

func TestCrystalSolubilityThermalHeavy(t *testing.T) {
	vl := newLab(t, false)
	res := RunCrystalSolubility(vl.Lab, Options{Run: "run-21"})
	if res.Err != nil || res.Anomalous {
		t.Fatalf("P3 run failed: %+v", res)
	}
	byCmd := make(map[string]int)
	for _, r := range vl.Sink.ByRun("run-21") {
		byCmd[r.Name]++
	}
	if byCmd["IN_PV_1"] == 0 || byCmd["IN_PV_2"] == 0 || byCmd["START_1"] == 0 {
		t.Errorf("P3 should poll temperature sensors and run the heater: %v", byCmd)
	}
	if byCmd["start_dosing"] != 0 {
		t.Errorf("P3 should not dose with the Quantos")
	}
}

func TestCrashMarksRunAnomalous(t *testing.T) {
	vl := newLab(t, false)
	res := RunSolubilityN9(vl.Lab, Options{
		Run: "run-16",
		Crash: &CrashPlan{
			Device: device.Quantos, Reason: "front door crashed into the robot", AfterCommands: 20,
		},
	})
	if !res.Anomalous {
		t.Fatalf("crash run not anomalous: %+v", res)
	}
	if res.Err == nil || errors.Is(res.Err, Stopped) {
		t.Errorf("crash termination cause = %v", res.Err)
	}
	// The exception must appear in the trace.
	found := false
	for _, r := range vl.Sink.ByRun("run-16") {
		if r.Exception != "" {
			found = true
		}
	}
	if !found {
		t.Error("crash exception not traced")
	}
	// The run stops shortly after the crash (epilogue only).
	complete := RunSolubilityN9(newLab(t, false).Lab, Options{Run: "x"})
	if res.Commands >= complete.Commands {
		t.Errorf("crashed run issued %d commands, complete run %d", res.Commands, complete.Commands)
	}
}

func TestOperatorStopIsBenign(t *testing.T) {
	vl := newLab(t, false)
	res := RunSolubilityN9UR(vl.Lab, Options{Run: "run-18", StopAfterCommands: 25})
	if res.Anomalous {
		t.Error("operator stop must not be anomalous")
	}
	if !errors.Is(res.Err, Stopped) {
		t.Errorf("termination cause = %v, want Stopped", res.Err)
	}
	if res.Commands < 25 || res.Commands > 30 {
		t.Errorf("stopped run issued %d commands, want ≈25", res.Commands)
	}
}

func TestJoystickPrefixChangesP1Profile(t *testing.T) {
	vl := newLab(t, false)
	res := RunSolubilityN9(vl.Lab, Options{Run: "run-12", JoystickPrefix: 40, StopAfterCommands: 260})
	if res.Anomalous {
		t.Error("run 12 is benign")
	}
	byCmd := make(map[string]int)
	total := 0
	for _, r := range vl.Sink.ByRun("run-12") {
		byCmd[r.Name]++
		total++
	}
	if frac := float64(byCmd["ARM"]+byCmd["MVNG"]) / float64(total); frac < 0.5 {
		t.Errorf("run 12 ARM+MVNG fraction = %v, want joystick-like (> 0.5)", frac)
	}
	if byCmd["start_dosing"] != 0 || byCmd["target_mass"] != 0 {
		t.Error("run 12 stopped before dosing; must contain no dosing commands")
	}
}

func TestFillDeviceExactCount(t *testing.T) {
	vl := newLab(t, false)
	for _, tc := range []struct {
		dev string
		n   int
	}{
		{device.C9, 100},
		{device.Tecan, 57},
		{device.IKA, 43},
		{device.UR3e, 21},
		{device.Quantos, 38},
	} {
		got, err := FillDevice(vl.Lab, tc.dev, tc.n)
		if err != nil {
			t.Fatalf("FillDevice(%s): %v", tc.dev, err)
		}
		if got != tc.n {
			t.Errorf("FillDevice(%s, %d) issued %d", tc.dev, tc.n, got)
		}
	}
	byDev := vl.Sink.CountByDevice()
	if byDev[device.C9] != 100 || byDev[device.Tecan] != 57 || byDev[device.IKA] != 43 ||
		byDev[device.UR3e] != 21 || byDev[device.Quantos] != 38 {
		t.Errorf("per-device counts = %v", byDev)
	}
	for _, r := range vl.Sink.All() {
		if r.Procedure != store.UnknownProcedure {
			t.Fatalf("filler trace labelled %q", r.Procedure)
		}
	}
}

func TestFillDeviceZeroAndUnknown(t *testing.T) {
	vl := newLab(t, false)
	if n, err := FillDevice(vl.Lab, device.C9, 0); n != 0 || err != nil {
		t.Errorf("FillDevice(0) = %d, %v", n, err)
	}
	if _, err := FillDevice(vl.Lab, "Toaster", 5); err == nil {
		t.Error("unknown device should error")
	}
}

func TestRunsAreDeterministicBySeed(t *testing.T) {
	seqFor := func() []string {
		vl, err := NewVirtualLab(VirtualLabConfig{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		defer vl.Close()
		RunSolubilityN9UR(vl.Lab, Options{Run: "r"})
		return vl.Sink.CommandSequence(nil)
	}
	a, b := seqFor(), seqFor()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverges at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestP2CommandBudgetNearPaper(t *testing.T) {
	// §VI: P2 "includes a sequence of 58 commands, a majority of which are
	// UR3e move commands". Our P2 with one vial should be in that ballpark.
	vl := newLab(t, false)
	res := RunSolubilityN9UR(vl.Lab, Options{Run: "r", Vials: 1, Solid: "NABH4"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Commands < 40 || res.Commands > 90 {
		t.Errorf("P2 single-vial run = %d commands, want ≈58", res.Commands)
	}
}

func TestVirtualLabDefaults(t *testing.T) {
	vl, err := NewVirtualLab(VirtualLabConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer vl.Close()
	if vl.Clock.Now().Before(time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC)) {
		t.Error("default start time not applied")
	}
	for _, cmd := range []device.Command{{Name: device.Init}, {Name: "move_to_location", Args: []string{"L0"}}} {
		if _, err := vl.Lab.UR3e.Exec(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if vl.Power() != nil {
		t.Error("power captured without WithPower")
	}
}

// TestRunMapsEveryLabel checks that Run maps each label to its runner — the
// same seeded run on a second lab, called directly, traces the same
// commands — and that an unknown label runs nothing and names itself.
func TestRunMapsEveryLabel(t *testing.T) {
	opts := Options{Run: "r", Vials: 1, Presses: 3, Seed: 4}
	for _, tc := range []struct {
		label  string
		runner func(*Lab, Options) Result
	}{
		{P1, RunSolubilityN9},
		{P2, RunSolubilityN9UR},
		{P3, RunCrystalSolubility},
		{Joystick, RunJoystick},
		{"P9", nil},
	} {
		vl := newLab(t, false)
		res := Run(vl.Lab, tc.label, opts)
		if tc.runner == nil {
			if res.Err == nil || !strings.Contains(res.Err.Error(), `"P9"`) || res.Commands != 0 || vl.Sink.Len() != 0 {
				t.Errorf("Run(%s) = %+v with %d records, want an error naming it and nothing run", tc.label, res, vl.Sink.Len())
			}
			continue
		}
		direct := newLab(t, false)
		want := tc.runner(direct.Lab, opts)
		if res.Err != nil || res.Procedure != tc.label || res != want {
			t.Errorf("Run(%s) = %+v, the runner gave %+v", tc.label, res, want)
		}
		got, wantRecs := vl.Sink.All(), direct.Sink.All()
		if len(got) == 0 || len(got) != len(wantRecs) {
			t.Fatalf("Run(%s) traced %d commands, the runner %d", tc.label, len(got), len(wantRecs))
		}
		for i := range got {
			if got[i].Device != wantRecs[i].Device || got[i].Name != wantRecs[i].Name || got[i].Procedure != tc.label {
				t.Fatalf("Run(%s) record %d = %s %s (%s), the runner's %s %s",
					tc.label, i, got[i].Device, got[i].Name, got[i].Procedure, wantRecs[i].Device, wantRecs[i].Name)
			}
		}
	}
}
