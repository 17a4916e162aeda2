package ur3e

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/power"
	"rad/internal/robot"
	"rad/internal/simclock"
)

func newTestArm() (*UR3e, *power.Monitor, *simclock.Virtual) {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	mon := power.NewMonitor(power.DefaultModel(), clock, 7)
	arm := New(device.NewEnv(clock, 1), mon)
	return arm, mon, clock
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
	arm, _, _ := newTestArm()
	_, err := arm.Exec(device.Command{Name: "open_gripper"})
	if !errors.Is(err, device.ErrNotConnected) {
		t.Errorf("want ErrNotConnected, got %v", err)
	}
}

func TestMoveToLocationAdvancesClockAndRecordsPower(t *testing.T) {
	arm, mon, clock := newTestArm()
	exec(t, arm, device.Init)
	before := clock.Now()
	exec(t, arm, "move_to_location", "L1")
	if got := clock.Now().Sub(before); got < 100*time.Millisecond {
		t.Errorf("move advanced clock by only %v; UR3e moves take ~seconds", got)
	}
	if mon.Len() == 0 {
		t.Error("no power samples recorded during move")
	}
	want, _ := robot.Location("L1")
	if arm.Pose() != want {
		t.Errorf("pose = %v, want L1 %v", arm.Pose(), want)
	}
}

func TestMoveJointsExplicitAngles(t *testing.T) {
	arm, _, _ := newTestArm()
	exec(t, arm, device.Init)
	args := []string{"0.5", "-1.2", "0.3", "-1.4", "0.1", "0.0"}
	exec(t, arm, "move_joints", args...)
	got := arm.Pose()
	want := robot.Config{0.5, -1.2, 0.3, -1.4, 0.1, 0.0}
	if got != want {
		t.Errorf("pose = %v, want %v", got, want)
	}
}

func TestMoveJointsWithVelocity(t *testing.T) {
	slow, _, slowClock := newTestArm()
	fast, _, fastClock := newTestArm()
	exec(t, slow, device.Init)
	exec(t, fast, device.Init)
	args := []string{"0.9", "-1.2", "0.35", "-1.4", "0.2", "0"}
	t0, t1 := slowClock.Now(), fastClock.Now()
	exec(t, slow, "move_joints", append(args, "100")...)
	exec(t, fast, "move_joints", append(args, "250")...)
	if slowClock.Now().Sub(t0) <= fastClock.Now().Sub(t1) {
		t.Error("100 mm/s move should take longer than 250 mm/s")
	}
}

func TestMoveArgValidation(t *testing.T) {
	arm, _, _ := newTestArm()
	exec(t, arm, device.Init)
	bad := [][]string{
		{},
		{"1", "2", "3"},
		{"1", "2", "3", "4", "5", "bogus"},
		{"1", "2", "3", "4", "5", "6", "-100"},
		{"1", "2", "3", "4", "5", "6", "7", "8"},
	}
	for _, args := range bad {
		if _, err := arm.Exec(device.Command{Name: "move_joints", Args: args}); !errors.Is(err, device.ErrBadArgs) {
			t.Errorf("move_joints(%v): want ErrBadArgs, got %v", args, err)
		}
	}
	if _, err := arm.Exec(device.Command{Name: "move_to_location", Args: []string{"narnia"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("unknown location: %v", err)
	}
	if _, err := arm.Exec(device.Command{Name: "move_to_location", Args: []string{"L1", "0"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("zero velocity: %v", err)
	}
}

func TestGripperControlsPayload(t *testing.T) {
	arm, mon, _ := newTestArm()
	exec(t, arm, device.Init)
	arm.SetNextPayload(0.5)
	if mon.Payload() != 0 {
		t.Error("payload should be 0 before gripping")
	}
	exec(t, arm, "close_gripper")
	if mon.Payload() != 0.5 {
		t.Errorf("payload after close = %v, want 0.5", mon.Payload())
	}
	exec(t, arm, "open_gripper")
	if mon.Payload() != 0 {
		t.Errorf("payload after open = %v, want 0", mon.Payload())
	}
	arm.SetNextPayload(-1)
	exec(t, arm, "close_gripper")
	if mon.Payload() != 0 {
		t.Errorf("negative payload clamped: got %v", mon.Payload())
	}
}

func TestMoveCircularSlowerThanDirect(t *testing.T) {
	direct, _, dc := newTestArm()
	circular, _, cc := newTestArm()
	exec(t, direct, device.Init)
	exec(t, circular, device.Init)
	t0, t1 := dc.Now(), cc.Now()
	exec(t, direct, "move_to_location", "L2")
	exec(t, circular, "move_circular", "L2")
	if cc.Now().Sub(t1) <= dc.Now().Sub(t0) {
		t.Error("circular arc should take longer than the direct move")
	}
}

func TestFaultOnMotion(t *testing.T) {
	arm, _, _ := newTestArm()
	exec(t, arm, device.Init)
	arm.InjectFault("Quantos front door crashed into UR3e")
	_, err := arm.Exec(device.Command{Name: "move_to_location", Args: []string{"quantos_tray"}})
	var fe *device.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError, got %v", err)
	}
}

func TestWorksWithoutMonitor(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	arm := New(device.NewEnv(clock, 1), nil)
	exec(t, arm, device.Init)
	before := clock.Now()
	exec(t, arm, "move_to_location", "L3")
	if clock.Now().Sub(before) < 100*time.Millisecond {
		t.Error("move without monitor should still advance the clock")
	}
	exec(t, arm, "close_gripper") // no panic with nil monitor
}

func TestUnknownCommand(t *testing.T) {
	arm, _, _ := newTestArm()
	exec(t, arm, device.Init)
	if _, err := arm.Exec(device.Command{Name: "fly"}); !errors.Is(err, device.ErrUnknownCommand) {
		t.Errorf("want ErrUnknownCommand, got %v", err)
	}
}

func ExampleUR3e() {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	mon := power.NewMonitor(power.DefaultModel(), clock, 7)
	arm := New(device.NewEnv(clock, 1), mon)
	_, _ = arm.Exec(device.Command{Name: device.Init})
	v, _ := arm.Exec(device.Command{Name: "move_to_location", Args: []string{"storage_rack"}})
	fmt.Println(v, mon.Len() > 0)
	// Output: ok true
}
