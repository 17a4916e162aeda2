package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/serial"
	"rad/internal/simclock"
	"rad/internal/store"
)

// scriptDev is a minimal healthy device: it answers every command and
// counts how many actually reached it.
type scriptDev struct {
	name  string
	calls int
}

func (d *scriptDev) Name() string { return d.name }
func (d *scriptDev) Exec(cmd device.Command) (string, error) {
	d.calls++
	return "OK:" + cmd.Name, nil
}

func TestParseProfile(t *testing.T) {
	cases := []struct {
		spec    string
		want    Profile
		wantErr bool
	}{
		{spec: "", want: None()},
		{spec: "none", want: None()},
		{spec: "flaky", want: Flaky()},
		{spec: "chaos", want: Chaos()},
		{spec: "none,drop=0.25,hangfor=30s", want: Profile{DropProb: 0.25, HangFor: 30 * time.Second}},
		{spec: "chaos,sink=0", want: func() Profile { p := Chaos(); p.SinkErrProb = 0; return p }()},
		{spec: "flaky,latmin=1ms,latmax=2ms", want: func() Profile {
			p := Flaky()
			p.LatencyMin, p.LatencyMax = time.Millisecond, 2*time.Millisecond
			return p
		}()},
		{spec: "storm", wantErr: true},          // unknown profile
		{spec: "none,drop=1.5", wantErr: true},  // probability out of range
		{spec: "none,drop", wantErr: true},      // malformed override
		{spec: "none,latency=x", wantErr: true}, // unparseable float
		{spec: "none,bogus=1", wantErr: true},   // unknown key
	}
	for _, tc := range cases {
		got, err := ParseProfile(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseProfile(%q): expected an error, got %+v", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseProfile(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	if None().Active() {
		t.Error("None() must not be active")
	}
	if !Chaos().Active() {
		t.Error("Chaos() must be active")
	}
}

// faultSchedule runs n commands through a fresh wrapper and records which
// command indices produced which fault kinds.
func faultSchedule(t *testing.T, p Profile, seed uint64, n int) map[int]Kind {
	t.Helper()
	clock := simclock.NewVirtual(time.Unix(0, 0))
	dev := WrapDevice(&scriptDev{name: "C9"}, clock, p, seed)
	out := make(map[int]Kind)
	for i := 0; i < n; i++ {
		_, err := dev.Exec(device.Command{Device: "C9", Name: "POSN"})
		if err == nil {
			continue
		}
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("cmd %d: non-Fault error %v", i, err)
		}
		out[i] = f.Kind
	}
	return out
}

func TestInjectorDeterminism(t *testing.T) {
	p := Profile{DropProb: 0.2, ResetProb: 0.1, HangProb: 0.05, HangFor: time.Second}
	a := faultSchedule(t, p, 42, 500)
	b := faultSchedule(t, p, 42, 500)
	if len(a) == 0 {
		t.Fatal("profile injected nothing in 500 commands")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different fault schedules")
	}
	if c := faultSchedule(t, p, 43, 500); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestDecisionStreamIndependence pins the fixed-roll-vector contract:
// enabling one fault class must not shift the decisions of the classes
// before it in the cumulative band (reset < hang < drop < garble).
func TestDecisionStreamIndependence(t *testing.T) {
	base := Profile{DropProb: 0.2}
	withGarble := Profile{DropProb: 0.2, GarbleProb: 0.3}
	a := faultSchedule(t, base, 7, 500)
	b := faultSchedule(t, withGarble, 7, 500)
	for i, k := range a {
		if k == KindDrop && b[i] != KindDrop {
			t.Fatalf("cmd %d: drop decision shifted when garble was enabled (%v -> %v)", i, k, b[i])
		}
	}
	// And the garble-enabled run must have injected garbles on top.
	garbles := 0
	for _, k := range b {
		if k == KindGarble {
			garbles++
		}
	}
	if garbles == 0 {
		t.Fatal("garble probability 0.3 injected no garbles in 500 commands")
	}
}

func TestFaultyDeviceLatencyAndHang(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	inner := &scriptDev{name: "IKA"}
	p := Profile{LatencyProb: 1, LatencyMin: 10 * time.Millisecond, LatencyMax: 10 * time.Millisecond}
	dev := WrapDevice(inner, clock, p, 1)
	start := clock.Now()
	if _, err := dev.Exec(device.Command{Device: "IKA", Name: "IN_PV_4"}); err != nil {
		t.Fatalf("latency-only profile errored: %v", err)
	}
	if got := clock.Now().Sub(start); got != 10*time.Millisecond {
		t.Errorf("latency spike advanced %v, want 10ms", got)
	}

	dev.SetProfile(Profile{HangProb: 1, HangFor: 45 * time.Second})
	start = clock.Now()
	_, err := dev.Exec(device.Command{Device: "IKA", Name: "IN_PV_4"})
	var f *Fault
	if !errors.As(err, &f) || f.Kind != KindHang {
		t.Fatalf("hang profile returned %v, want KindHang fault", err)
	}
	if got := clock.Now().Sub(start); got != 45*time.Second {
		t.Errorf("hang advanced %v, want 45s", got)
	}
	callsBeforeReset := inner.calls
	dev.SetProfile(Profile{ResetProb: 1})
	if _, err := dev.Exec(device.Command{Device: "IKA", Name: "IN_PV_4"}); err == nil {
		t.Fatal("reset profile did not error")
	}
	if inner.calls != callsBeforeReset {
		t.Error("a reset fault must not reach the device")
	}
	if dev.Name() != "IKA" {
		t.Error("wrapper identity broken")
	}
}

func TestFlakySink(t *testing.T) {
	mem := store.NewMemStore()
	sink := WrapSink(mem, Profile{SinkErrProb: 1}, 5)
	rec := store.Record{Device: "C9", Name: "POSN"}
	if err := sink.Append(rec); err == nil {
		t.Fatal("SinkErrProb=1 Append succeeded")
	} else if !IsInfra(err) {
		t.Fatalf("sink fault %v not classified as infra", err)
	}
	if mem.Len() != 0 {
		t.Fatalf("failed writes still landed %d records", mem.Len())
	}
	sink.SetProfile(None())
	if err := sink.Append(rec); err != nil {
		t.Fatalf("healed sink Append: %v", err)
	}
	if mem.Len() != 1 {
		t.Fatalf("healed sink holds %d records, want 1", mem.Len())
	}
}

func TestIsInfra(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&Fault{Kind: KindHang, Target: "C9"}, true},
		{fmt.Errorf("middlebox: C9: %w (timeout 5s)", ErrDeadline), true},
		{serial.ErrClosed, true},
		{errors.New("C9: unknown command FOO"), false},
		{fmt.Errorf("wrapped: %w", &Fault{Kind: KindSink}), true},
	}
	for _, tc := range cases {
		if got := IsInfra(tc.err); got != tc.want {
			t.Errorf("IsInfra(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
