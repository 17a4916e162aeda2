package tecan

import (
	"errors"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/simclock"
)

func newTestPump() (*Tecan, *simclock.Virtual) {
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
	p, _ := newTestPump()
	if _, err := p.Exec(device.Command{Name: "Q"}); !errors.Is(err, device.ErrNotConnected) {
		t.Errorf("want ErrNotConnected, got %v", err)
	}
}

func TestStatusPollingDuringMove(t *testing.T) {
	p, clock := newTestPump()
	exec(t, p, device.Init)
	if got := exec(t, p, "Q"); got != statusIdle {
		t.Errorf("idle status = %q, want %q", got, statusIdle)
	}
	exec(t, p, "V", "1000")
	exec(t, p, "A", "3000") // 3000 increments at 1000/s = 3s
	if got := exec(t, p, "Q"); got != statusBusy {
		t.Errorf("status during move = %q, want %q", got, statusBusy)
	}
	clock.Advance(5 * time.Second)
	if got := exec(t, p, "Q"); got != statusIdle {
		t.Errorf("status after move = %q, want %q", got, statusIdle)
	}
}

func TestRelativePickupAndOverrun(t *testing.T) {
	p, clock := newTestPump()
	exec(t, p, device.Init)
	exec(t, p, "A", "5000")
	clock.Advance(time.Minute)
	exec(t, p, "P", "500")
	clock.Advance(time.Minute)
	// 5000 + 500 = 5500 is fine, another 1000 overruns the 6000 limit.
	if _, err := p.Exec(device.Command{Name: "P", Args: []string{"1000"}}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("overrun P: want ErrBadArgs, got %v", err)
	}
}

func TestHomeCommand(t *testing.T) {
	p, clock := newTestPump()
	exec(t, p, device.Init)
	exec(t, p, "A", "2000")
	clock.Advance(time.Minute)
	exec(t, p, "Z")
	if got := exec(t, p, "Q"); got != statusBusy {
		t.Errorf("Z should start a motion, status = %q", got)
	}
	clock.Advance(time.Minute)
	if got := exec(t, p, "Q"); got != statusIdle {
		t.Errorf("after homing, status = %q", got)
	}
}

func TestParameterValidation(t *testing.T) {
	p, _ := newTestPump()
	exec(t, p, device.Init)
	bad := []struct {
		cmd  string
		args []string
	}{
		{"A", []string{"-1"}}, {"A", []string{"6001"}}, {"A", nil},
		{"V", []string{"4"}}, {"V", []string{"5801"}},
		{"I", []string{"0"}}, {"I", []string{"10"}},
		{"k", []string{"-1"}}, {"k", []string{"32"}},
		{"L", []string{"0"}}, {"L", []string{"21"}},
		{"P", []string{"-5"}},
	}
	for _, b := range bad {
		if _, err := p.Exec(device.Command{Name: b.cmd, Args: b.args}); !errors.Is(err, device.ErrBadArgs) {
			t.Errorf("%s(%v): want ErrBadArgs, got %v", b.cmd, b.args, err)
		}
	}
	// Valid settings succeed.
	exec(t, p, "V", "1400")
	exec(t, p, "I", "2")
	exec(t, p, "k", "5")
	exec(t, p, "L", "14")
}

func TestBatchRecordsAndExecutes(t *testing.T) {
	p, clock := newTestPump()
	exec(t, p, device.Init)
	exec(t, p, "V", "1000")
	before := clock.Now()
	exec(t, p, "g")
	exec(t, p, "A", "1000")
	exec(t, p, "I", "3")
	exec(t, p, "A", "0")
	// Queued commands have no effect yet (aside from protocol latency).
	if clock.Now().Sub(before) > 100*time.Millisecond {
		t.Error("queued batch commands should not execute eagerly")
	}
	exec(t, p, "G")
	// Executing the batch moves 1000 up and 1000 back at 1000/s → ≈2s.
	elapsed := clock.Now().Sub(before)
	if elapsed < 1500*time.Millisecond {
		t.Errorf("batch execution advanced clock by %v, want ≈2s", elapsed)
	}
	if got := exec(t, p, "Q"); got != statusIdle {
		t.Errorf("after batch, status = %q", got)
	}
}

func TestStopBatchWithoutStartFails(t *testing.T) {
	p, _ := newTestPump()
	exec(t, p, device.Init)
	if _, err := p.Exec(device.Command{Name: "G"}); !errors.Is(err, device.ErrBadArgs) {
		t.Errorf("G without g: want ErrBadArgs, got %v", err)
	}
}

func TestUnknownCommand(t *testing.T) {
	p, _ := newTestPump()
	exec(t, p, device.Init)
	if _, err := p.Exec(device.Command{Name: "X"}); !errors.Is(err, device.ErrUnknownCommand) {
		t.Errorf("want ErrUnknownCommand, got %v", err)
	}
}
