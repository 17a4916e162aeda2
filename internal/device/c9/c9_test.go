package c9

import (
	"errors"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/simclock"
)

func newTestC9() (*C9, *simclock.Virtual) {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	c := New(device.NewEnv(clock, 1))
	return c, clock
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
	c, _ := newTestC9()
	_, err := c.Exec(device.Command{Name: "MVNG"})
	if !errors.Is(err, device.ErrNotConnected) {
		t.Errorf("want ErrNotConnected, got %v", err)
	}
	exec(t, c, device.Init)
	if got := exec(t, c, "MVNG"); got != "0 0 0 0" {
		t.Errorf("MVNG after init = %q", got)
	}
}

func TestArmMotionLifecycle(t *testing.T) {
	c, clock := newTestC9()
	exec(t, c, device.Init)
	exec(t, c, "SPED", "100")
	exec(t, c, "ARM", "100", "50", "25")
	if got := exec(t, c, "MVNG"); got != "1 1 1 1" {
		t.Errorf("MVNG during motion = %q, want all moving", got)
	}
	// 100 mm at 100 mm/s = 1 s; advance past it.
	clock.Advance(2 * time.Second)
	if got := exec(t, c, "MVNG"); got != "0 0 0 0" {
		t.Errorf("MVNG after motion = %q, want all stationary", got)
	}
	if got := exec(t, c, "POSN", "0"); got != "100.00" {
		t.Errorf("POSN(0) = %q, want 100.00", got)
	}
	if got := exec(t, c, "POSN", "3"); got != "0.00" {
		t.Errorf("POSN(3) = %q, want 0.00 (unspecified axis)", got)
	}
}

func TestArmValidatesArgs(t *testing.T) {
	c, _ := newTestC9()
	exec(t, c, device.Init)
	cases := [][]string{
		{},
		{"1"},
		{"1", "2"},
		{"1", "2", "3", "4", "5"},
		{"1", "2", "notanumber"},
	}
	for _, args := range cases {
		_, err := c.Exec(device.Command{Name: "ARM", Args: args})
		if !errors.Is(err, device.ErrBadArgs) {
			t.Errorf("ARM(%v): want ErrBadArgs, got %v", args, err)
		}
	}
}

func TestMoveSingleAxis(t *testing.T) {
	c, clock := newTestC9()
	exec(t, c, device.Init)
	exec(t, c, "MOVE", "2", "42.5")
	clock.Advance(5 * time.Second)
	if got := exec(t, c, "POSN", "2"); got != "42.50" {
		t.Errorf("POSN(2) = %q", got)
	}
	if _, err := c.Exec(device.Command{Name: "MOVE", Args: []string{"9", "1"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("MOVE bad axis: %v", err)
	}
}

func TestCurrentHigherWhileMoving(t *testing.T) {
	c, clock := newTestC9()
	exec(t, c, device.Init)
	idle := exec(t, c, "CURR", "0")
	exec(t, c, "ARM", "200", "0", "0")
	moving := exec(t, c, "CURR", "0")
	clock.Advance(10 * time.Second)
	if idle >= moving { // lexicographic works here: "0.1xx" < "0.9xx"
		t.Errorf("idle current %s should be below moving current %s", idle, moving)
	}
}

func TestSettersAndCentrifuge(t *testing.T) {
	c, _ := newTestC9()
	exec(t, c, device.Init)
	exec(t, c, "JLEN", "12.5")
	exec(t, c, "BIAS", "-0.4")
	exec(t, c, "GRIP", "open")
	exec(t, c, "GRIP", "close")
	if _, err := c.Exec(device.Command{Name: "GRIP", Args: []string{"sideways"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("GRIP sideways: %v", err)
	}
	if got := exec(t, c, "OUTP", "1"); got != "1" {
		t.Errorf("first OUTP = %q, want 1 (on)", got)
	}
	if got := exec(t, c, "OUTP", "1"); got != "0" {
		t.Errorf("second OUTP = %q, want 0 (off)", got)
	}
	if _, err := c.Exec(device.Command{Name: "SPED", Args: []string{"-5"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("SPED -5: %v", err)
	}
}

func TestHomeReturnsAllAxes(t *testing.T) {
	c, clock := newTestC9()
	exec(t, c, device.Init)
	exec(t, c, "ARM", "50", "60", "70")
	clock.Advance(10 * time.Second)
	exec(t, c, "HOME")
	clock.Advance(10 * time.Second)
	for axis := 0; axis < NumAxes; axis++ {
		if got := exec(t, c, "POSN", itoa(axis)); got != "0.00" {
			t.Errorf("axis %d after HOME = %q", axis, got)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	c, _ := newTestC9()
	exec(t, c, device.Init)
	c.InjectFault("collision with Quantos front door")
	_, err := c.Exec(device.Command{Name: "ARM", Args: []string{"10", "0", "0"}})
	var fe *device.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError, got %v", err)
	}
	if fe.Device != device.C9 {
		t.Errorf("fault device = %q", fe.Device)
	}
	// The fault persists.
	if _, err := c.Exec(device.Command{Name: "HOME"}); err == nil {
		t.Error("fault should persist")
	}
}

func TestUnknownCommand(t *testing.T) {
	c, _ := newTestC9()
	exec(t, c, device.Init)
	_, err := c.Exec(device.Command{Name: "WARP"})
	if !errors.Is(err, device.ErrUnknownCommand) {
		t.Errorf("want ErrUnknownCommand, got %v", err)
	}
}

func TestExecChargesLatencyToClock(t *testing.T) {
	c, clock := newTestC9()
	before := clock.Now()
	exec(t, c, device.Init)
	d := clock.Now().Sub(before)
	if d < baseLatency || d > baseLatency+jitterLatency {
		t.Errorf("init latency = %v, want in [%v, %v)", d, baseLatency, baseLatency+jitterLatency)
	}
}

func itoa(i int) string { return string(rune('0' + i)) }
