package robot

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestProfileReachesDistance(t *testing.T) {
	tests := []struct {
		name             string
		dist, vmax, amax float64
	}{
		{"trapezoid", 2.0, 0.5, 1.0},
		{"triangle", 0.1, 5.0, 1.0},
		{"exact boundary", 1.0, 1.0, 1.0}, // dFull == dist
		{"zero distance", 0, 1.0, 1.0},
		{"long cruise", 100, 0.25, 2.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := NewProfile(tt.dist, tt.vmax, tt.amax)
			if err != nil {
				t.Fatalf("NewProfile: %v", err)
			}
			if got := p.Position(p.Duration()); !almostEqual(got, tt.dist, 1e-9) {
				t.Errorf("Position(T) = %v, want %v", got, tt.dist)
			}
			if got := p.Position(p.Duration() + 100); !almostEqual(got, tt.dist, 1e-9) {
				t.Errorf("Position past end = %v, want %v", got, tt.dist)
			}
			if v := p.Velocity(p.Duration() + 1); v != 0 {
				t.Errorf("Velocity past end = %v, want 0", v)
			}
		})
	}
}

func TestProfileRejectsBadParams(t *testing.T) {
	cases := []struct{ d, v, a float64 }{
		{1, 0, 1}, {1, 1, 0}, {1, -1, 1}, {-1, 1, 1},
		{math.NaN(), 1, 1}, {math.Inf(1), 1, 1},
	}
	for _, c := range cases {
		if _, err := NewProfile(c.d, c.v, c.a); err == nil {
			t.Errorf("NewProfile(%v, %v, %v): want error", c.d, c.v, c.a)
		}
	}
}

func TestProfileVelocityNeverExceedsVmax(t *testing.T) {
	p, err := NewProfile(3.0, 0.8, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0.0; ts <= p.Duration(); ts += 0.001 {
		if v := p.Velocity(ts); v > p.Vmax+1e-12 {
			t.Fatalf("Velocity(%v) = %v exceeds vmax %v", ts, v, p.Vmax)
		}
	}
}

func TestProfileTriangularPeakBelowVmax(t *testing.T) {
	p, err := NewProfile(0.01, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Peak() >= 10 {
		t.Errorf("triangular peak %v should be below vmax", p.Peak())
	}
	wantPeak := math.Sqrt(0.01 * 1)
	if !almostEqual(p.Peak(), wantPeak, 1e-12) {
		t.Errorf("peak = %v, want %v", p.Peak(), wantPeak)
	}
}

// Property: position is monotone non-decreasing and velocity integrates to
// distance for random valid profiles.
func TestProfileMonotoneProperty(t *testing.T) {
	f := func(d8, v8, a8 uint8) bool {
		dist := float64(d8)/16 + 0.01
		vmax := float64(v8)/64 + 0.05
		amax := float64(a8)/64 + 0.05
		p, err := NewProfile(dist, vmax, amax)
		if err != nil {
			return false
		}
		prev := -1e-12
		dt := p.Duration() / 500
		if dt == 0 {
			return true
		}
		for ts := 0.0; ts <= p.Duration(); ts += dt {
			pos := p.Position(ts)
			if pos < prev-1e-9 {
				return false
			}
			prev = pos
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileVelocityIntegratesToDistance(t *testing.T) {
	p, err := NewProfile(1.7, 0.6, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	// Numerically integrate velocity with the trapezoid rule.
	const n = 20000
	dt := p.Duration() / n
	sum := 0.0
	for i := 0; i < n; i++ {
		t0 := float64(i) * dt
		sum += 0.5 * (p.Velocity(t0) + p.Velocity(t0+dt)) * dt
	}
	if !almostEqual(sum, 1.7, 1e-4) {
		t.Errorf("integral of velocity = %v, want 1.7", sum)
	}
}

func TestMoveEndsAtTarget(t *testing.T) {
	from, ok := Location("L0")
	if !ok {
		t.Fatal("L0 missing")
	}
	to, ok := Location("L1")
	if !ok {
		t.Fatal("L1 missing")
	}
	m, err := NewMove(from, to, 0.7, DefaultAccel)
	if err != nil {
		t.Fatal(err)
	}
	end := m.StateAt(m.Duration())
	for i := range end.Pos {
		if !almostEqual(end.Pos[i], to[i], 1e-9) {
			t.Errorf("joint %d final pos = %v, want %v", i, end.Pos[i], to[i])
		}
		if end.Vel[i] != 0 {
			t.Errorf("joint %d final vel = %v, want 0", i, end.Vel[i])
		}
	}
	start := m.StateAt(0)
	for i := range start.Pos {
		if !almostEqual(start.Pos[i], from[i], 1e-9) {
			t.Errorf("joint %d initial pos = %v, want %v", i, start.Pos[i], from[i])
		}
	}
}

func TestMoveJointsSynchronized(t *testing.T) {
	from := Config{0, 0, 0, 0, 0, 0}
	to := Config{1.0, 0.5, -0.25, 0, 0.1, 0}
	m, err := NewMove(from, to, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Halfway through, every joint should have covered the same fraction of
	// its own excursion.
	mid := m.StateAt(m.Duration() / 2)
	frac0 := (mid.Pos[0] - from[0]) / (to[0] - from[0])
	for i := 1; i < NumJoints; i++ {
		if to[i] == from[i] {
			if mid.Vel[i] != 0 {
				t.Errorf("stationary joint %d has velocity %v", i, mid.Vel[i])
			}
			continue
		}
		frac := (mid.Pos[i] - from[i]) / (to[i] - from[i])
		if !almostEqual(frac, frac0, 1e-9) {
			t.Errorf("joint %d fraction %v != leading fraction %v", i, frac, frac0)
		}
	}
}

func TestMoveZeroDistance(t *testing.T) {
	c := Config{1, 2, 3, 4, 5, 6}
	m, err := NewMove(c, c, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Duration() != 0 {
		t.Errorf("zero move duration = %v, want 0", m.Duration())
	}
	s := m.StateAt(0)
	if s.Pos != [NumJoints]float64(c) {
		t.Errorf("zero move position changed: %v", s.Pos)
	}
}

func TestMoveFasterVelocityShorterDuration(t *testing.T) {
	from, _ := Location("L0")
	to, _ := Location("L1")
	slow, err := NewMove(from, to, LinearToAngular(100), DefaultAccel)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewMove(from, to, LinearToAngular(250), DefaultAccel)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Duration() >= slow.Duration() {
		t.Errorf("250 mm/s duration %v should be < 100 mm/s duration %v",
			fast.Duration(), slow.Duration())
	}
}

func TestAllNamedLocationsResolve(t *testing.T) {
	for _, name := range LocationNames() {
		if _, ok := Location(name); !ok {
			t.Errorf("location %q not resolvable", name)
		}
	}
	if _, ok := Location("no_such_place"); ok {
		t.Error("unknown location resolved")
	}
}

func TestSegmentWaypointsAreDistinct(t *testing.T) {
	names := SegmentWaypoints()
	if len(names) != 6 {
		t.Fatalf("want 6 waypoints for 5 segments, got %d", len(names))
	}
	for i := 0; i < len(names)-1; i++ {
		a, _ := Location(names[i])
		b, _ := Location(names[i+1])
		if d, _ := b.Sub(a).MaxAbs(); d < 0.1 {
			t.Errorf("segment %s→%s excursion %v too small to produce a distinct signature",
				names[i], names[i+1], d)
		}
	}
}

func TestLinearToAngular(t *testing.T) {
	if got := LinearToAngular(300); !almostEqual(got, 1.0, 1e-12) {
		t.Errorf("LinearToAngular(300) = %v, want 1.0", got)
	}
	if LinearToAngular(100) >= LinearToAngular(200) {
		t.Error("angular velocity should grow with linear velocity")
	}
}
