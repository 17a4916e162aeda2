package quantos

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/simclock"
)

func newTestQuantos() (*Quantos, *simclock.Virtual) {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	return New(device.NewEnv(clock, 1)), clock
}

func exec(t *testing.T, d device.Device, name string, args ...string) string {
	t.Helper()
	v, err := d.Exec(device.Command{Device: d.Name(), Name: name, Args: args})
	if err != nil {
		t.Fatalf("%s(%v): %v", name, args, err)
	}
	return v
}

func TestRequiresInit(t *testing.T) {
	q, _ := newTestQuantos()
	if _, err := q.Exec(device.Command{Name: "zero"}); !errors.Is(err, device.ErrNotConnected) {
		t.Errorf("want ErrNotConnected, got %v", err)
	}
}

func TestDoorStateTracked(t *testing.T) {
	q, _ := newTestQuantos()
	exec(t, q, device.Init)
	exec(t, q, "front_door", "open")
	if !q.DoorOpen() {
		t.Error("door should be open")
	}
	exec(t, q, "front_door", "close")
	if q.DoorOpen() {
		t.Error("door should be closed")
	}
	if _, err := q.Exec(device.Command{Name: "front_door", Args: []string{"ajar"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("front_door ajar: %v", err)
	}
}

func TestDosingWorkflow(t *testing.T) {
	q, clock := newTestQuantos()
	exec(t, q, device.Init)
	exec(t, q, "lock_dosing_pin_position")
	exec(t, q, "target_mass", "50")
	before := clock.Now()
	got := exec(t, q, "start_dosing")
	dosed, err := strconv.ParseFloat(got, 64)
	if err != nil {
		t.Fatalf("dose response %q: %v", got, err)
	}
	// ±2% dosing tolerance with noise; allow generous bounds.
	if dosed < 45 || dosed > 55 {
		t.Errorf("dosed %v mg, want ≈50", dosed)
	}
	// 50 mg at 2.5 mg/s ≈ 20 s of dosing time.
	if elapsed := clock.Now().Sub(before); elapsed < 10*time.Second {
		t.Errorf("dosing advanced clock by only %v", elapsed)
	}
	// Taring resets the reading; further dosing is measured from zero.
	exec(t, q, "zero")
	got2 := exec(t, q, "start_dosing")
	d2, _ := strconv.ParseFloat(got2, 64)
	if d2 < 45 || d2 > 55 {
		t.Errorf("post-tare dose reading %v, want ≈50", d2)
	}
}

func TestDosingPreconditions(t *testing.T) {
	q, _ := newTestQuantos()
	exec(t, q, device.Init)

	// No target mass yet.
	exec(t, q, "lock_dosing_pin_position")
	if _, err := q.Exec(device.Command{Name: "start_dosing"}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("dosing without target: %v", err)
	}
	exec(t, q, "target_mass", "25")

	// Door open blocks dosing.
	exec(t, q, "front_door", "open")
	if _, err := q.Exec(device.Command{Name: "start_dosing"}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("dosing with door open: %v", err)
	}
	exec(t, q, "front_door", "close")

	// Unlocked pin blocks dosing.
	exec(t, q, "unlock_dosing_pin_position")
	if _, err := q.Exec(device.Command{Name: "start_dosing"}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("dosing with pin unlocked: %v", err)
	}
	exec(t, q, "lock_dosing_pin_position")
	exec(t, q, "start_dosing")
}

func TestZStage(t *testing.T) {
	q, clock := newTestQuantos()
	exec(t, q, device.Init)
	exec(t, q, "set_home_direction", "-1")
	exec(t, q, "move_z_axis", "800")
	clock.Advance(10 * time.Second)
	exec(t, q, "home_z_stage")
	if _, err := q.Exec(device.Command{Name: "move_z_axis", Args: []string{"99999"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("z overrange: %v", err)
	}
	if _, err := q.Exec(device.Command{Name: "set_home_direction", Args: []string{"2"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("bad home direction: %v", err)
	}
}

func TestFrontDoorFault(t *testing.T) {
	q, _ := newTestQuantos()
	exec(t, q, device.Init)
	q.InjectFault("front door crashed into UR3e")
	_, err := q.Exec(device.Command{Name: "front_door", Args: []string{"open"}})
	var fe *device.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError, got %v", err)
	}
	// Dosing also blocked while the fault stands.
	exec(t, q, "lock_dosing_pin_position")
	exec(t, q, "target_mass", "10")
	if _, err := q.Exec(device.Command{Name: "start_dosing"}); err == nil {
		t.Error("dosing should fail while fault armed")
	}
}

func TestTargetMassValidation(t *testing.T) {
	q, _ := newTestQuantos()
	exec(t, q, device.Init)
	for _, arg := range []string{"0", "-5", "abc"} {
		if _, err := q.Exec(device.Command{Name: "target_mass", Args: []string{arg}}); !errors.Is(err, device.ErrBadArgs) {
			t.Errorf("target_mass(%s): %v", arg, err)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	q, _ := newTestQuantos()
	exec(t, q, device.Init)
	if _, err := q.Exec(device.Command{Name: "levitate"}); !errors.Is(err, device.ErrUnknownCommand) {
		t.Errorf("want ErrUnknownCommand, got %v", err)
	}
}

func TestAllCatalogCommandsImplemented(t *testing.T) {
	q, _ := newTestQuantos()
	exec(t, q, device.Init)
	argsFor := map[string][]string{
		"front_door":         {"close"},
		"move_z_axis":        {"100"},
		"set_home_direction": {"1"},
		"target_mass":        {"30"},
	}
	// Order matters: configure before dosing.
	order := []string{
		"front_door", "home_z_stage", "zero", "set_home_direction",
		"move_z_axis", "lock_dosing_pin_position", "target_mass",
		"start_dosing", "unlock_dosing_pin_position",
	}
	for _, name := range order {
		if _, err := q.Exec(device.Command{Name: name, Args: argsFor[name]}); err != nil {
			t.Errorf("catalog command %s failed: %v", name, err)
		}
	}
}
