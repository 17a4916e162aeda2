package power

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rad/internal/robot"
	"rad/internal/simclock"
)

func TestPropertyNamesCountAndUniqueness(t *testing.T) {
	names := PropertyNames()
	if len(names) != NumProperties {
		t.Fatalf("schema has %d properties, paper reports %d", len(names), NumProperties)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate property %q", n)
		}
		seen[n] = true
	}
}

func TestSamplePropertyLookup(t *testing.T) {
	s := Sample{Values: make([]float64, NumProperties)}
	s.Values[propertyIndex["actual_current_0"]] = 1.5
	if got := s.JointCurrent(0); got != 1.5 {
		t.Errorf("JointCurrent(0) = %v, want 1.5", got)
	}
	if got := s.JointCurrent(robot.NumJoints); got != 0 {
		t.Errorf("JointCurrent(%d), past the last joint, = %v, want 0", robot.NumJoints, got)
	}
	if got := (Sample{}).JointCurrent(0); got != 0 {
		t.Errorf("JointCurrent(0) of a sample without values = %v, want 0", got)
	}
	if propertyNames[jointIndex.actualQd[3]] != "actual_qd_3" {
		t.Error("actual_qd_3 resolved to the wrong property")
	}
}

func testMove(t *testing.T, from, to string, vmms float64) *robot.Move {
	t.Helper()
	a, ok := robot.Location(from)
	if !ok {
		t.Fatalf("location %s missing", from)
	}
	b, ok := robot.Location(to)
	if !ok {
		t.Fatalf("location %s missing", to)
	}
	mv, err := robot.NewMove(a, b, robot.LinearToAngular(vmms), robot.DefaultAccel)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func newTestMonitor(seed uint64) (*Monitor, *simclock.Virtual) {
	clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
	return NewMonitor(DefaultModel(), clock, seed), clock
}

// collect gathers the samples m records from now on through a sample hook,
// as a capture's collector does.
func collect(m *Monitor) *[]Sample {
	got := new([]Sample)
	m.SetOnSample(func(s Sample) { *got = append(*got, s) })
	return got
}

func TestRecordMoveSamplesAt25Hz(t *testing.T) {
	m, clock := newTestMonitor(1)
	mv := testMove(t, "L0", "L1", 200)
	before := clock.Now()
	m.RecordMove(mv)
	wantTicks := int(math.Ceil(mv.Duration()/SamplePeriod)) + 1
	if got := m.Len(); got < wantTicks-1 || got > wantTicks+1 {
		t.Errorf("recorded %d samples, want ≈%d", got, wantTicks)
	}
	elapsed := clock.Now().Sub(before).Seconds()
	if elapsed < mv.Duration()-SamplePeriod || elapsed > mv.Duration()+2*SamplePeriod {
		t.Errorf("clock advanced %vs for a %vs move", elapsed, mv.Duration())
	}
	if got := m.Pose(); got != mv.To {
		t.Errorf("pose after move = %v, want %v", got, mv.To)
	}
}

func TestRecordMoveDeterministicBySeed(t *testing.T) {
	a, _ := newTestMonitor(42)
	b, _ := newTestMonitor(42)
	mv := testMove(t, "L1", "L2", 200)
	mv2 := testMove(t, "L1", "L2", 200)
	ga, gb := collect(a), collect(b)
	a.RecordMove(mv)
	b.RecordMove(mv2)
	sa, sb := *ga, *gb
	if len(sa) != len(sb) {
		t.Fatalf("sample counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].JointCurrent(0) != sb[i].JointCurrent(0) {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
}

func TestCurrentSignatureRepeatable(t *testing.T) {
	// Same trajectory on two different noise seeds → highly correlated
	// currents (the Fig. 7a repeatability claim).
	a, _ := newTestMonitor(1)
	b, _ := newTestMonitor(2)
	ga, gb := collect(a), collect(b)
	a.RecordMove(testMove(t, "L0", "L1", 200))
	b.RecordMove(testMove(t, "L0", "L1", 200))
	ca := CurrentSeries(*ga, 0)
	cb := CurrentSeries(*gb, 0)
	if len(ca) != len(cb) {
		t.Fatalf("lengths differ: %d vs %d", len(ca), len(cb))
	}
	if r := pearson(ca, cb); r < 0.95 {
		t.Errorf("same-trajectory correlation = %v, want > 0.95", r)
	}
}

func TestDifferentSegmentsDistinctSignatures(t *testing.T) {
	a, _ := newTestMonitor(1)
	b, _ := newTestMonitor(1)
	ga, gb := collect(a), collect(b)
	a.RecordMove(testMove(t, "L0", "L1", 200))
	b.RecordMove(testMove(t, "L2", "L3", 200))
	ca := CurrentSeries(*ga, 0)
	cb := CurrentSeries(*gb, 0)
	n := min(len(ca), len(cb))
	if r := pearson(ca[:n], cb[:n]); r > 0.9 {
		t.Errorf("different segments correlate at %v; signatures should differ", r)
	}
}

func TestVelocityScalesAmplitudeAndStretchesTime(t *testing.T) {
	slow, _ := newTestMonitor(1)
	fast, _ := newTestMonitor(1)
	gs, gf := collect(slow), collect(fast)
	slow.RecordMove(testMove(t, "L0", "L1", 100))
	fast.RecordMove(testMove(t, "L0", "L1", 250))
	cs := CurrentSeries(*gs, 0)
	cf := CurrentSeries(*gf, 0)
	if len(cs) <= len(cf) {
		t.Errorf("100 mm/s trace (%d ticks) should be longer than 250 mm/s (%d ticks)",
			len(cs), len(cf))
	}
	if maxAbs(cf) <= maxAbs(cs) {
		t.Errorf("250 mm/s amplitude %v should exceed 100 mm/s amplitude %v",
			maxAbs(cf), maxAbs(cs))
	}
}

func TestPayloadRaisesCurrent(t *testing.T) {
	amps := make([]float64, 0, 3)
	for _, kg := range []float64{0.020, 0.500, 1.000} {
		m, _ := newTestMonitor(1)
		m.SetPayload(kg)
		got := collect(m)
		m.RecordMove(testMove(t, "L0", "L1", 200))
		amps = append(amps, maxAbs(CurrentSeries(*got, 0)))
	}
	if !(amps[0] < amps[1] && amps[1] < amps[2]) {
		t.Errorf("amplitudes should grow with payload, got %v", amps)
	}
}

func TestSetPayloadClampsNegative(t *testing.T) {
	m, _ := newTestMonitor(1)
	m.SetPayload(-5)
	if got := m.Payload(); got != 0 {
		t.Errorf("negative payload stored as %v, want 0", got)
	}
}

func TestRecordQuiescentLowCurrent(t *testing.T) {
	m, clock := newTestMonitor(1)
	before := clock.Now()
	samples := collect(m)
	m.RecordQuiescent(2 * time.Second)
	if m.Len() != 50 {
		t.Errorf("2 s quiescent = %d samples, want 50", m.Len())
	}
	if got := clock.Now().Sub(before); got != 2*time.Second {
		t.Errorf("clock advanced %v, want 2s", got)
	}
	for i, s := range *samples {
		if v := s.Values[jointIndex.actualQd[0]]; math.Abs(v) > 0.05 {
			t.Errorf("quiescent sample %d has velocity %v", i, v)
		}
	}
}

func TestEverySampleHasFullSchema(t *testing.T) {
	m, _ := newTestMonitor(1)
	got := collect(m)
	m.RecordMove(testMove(t, "L3", "L4", 200))
	for i, s := range *got {
		if len(s.Values) != NumProperties {
			t.Fatalf("sample %d has %d values, want %d", i, len(s.Values), NumProperties)
		}
	}
}

func TestMomentTracksPayload(t *testing.T) {
	model := DefaultModel()
	var s robot.State
	s.Pos[1] = 0 // horizontal: maximum gravity torque on the shoulder
	m0 := model.Moment(1, s, 0)
	m1 := model.Moment(1, s, 1.0)
	if m1 <= m0 {
		t.Errorf("shoulder moment with 1 kg (%v) should exceed unloaded (%v)", m1, m0)
	}
	if got := model.Moment(-1, s, 0); got != 0 {
		t.Errorf("out-of-range joint moment = %v, want 0", got)
	}
}

func TestBaseJointHasNoGravityTerm(t *testing.T) {
	model := DefaultModel()
	var rest robot.State // at rest, arbitrary pose
	rest.Pos = [robot.NumJoints]float64{0.7, -1.2, 0.5, -1.0, 0.3, 0.1}
	if got := model.Current(0, rest, 0); math.Abs(got) > 1e-9 {
		t.Errorf("base joint current at rest = %v, want 0 (vertical axis)", got)
	}
	if got := model.Current(1, rest, 0); math.Abs(got) < 1e-6 {
		t.Errorf("shoulder joint current at rest = %v, want nonzero gravity load", got)
	}
}

func TestModelClampsJointIndex(t *testing.T) {
	model := DefaultModel()
	var s robot.State
	s.Acc[0] = 1
	s.Acc[robot.NumJoints-1] = 1
	if got, want := model.Current(-3, s, 0), model.Current(0, s, 0); got != want {
		t.Errorf("negative joint index: got %v want %v", got, want)
	}
	if got, want := model.Current(99, s, 0), model.Current(robot.NumJoints-1, s, 0); got != want {
		t.Errorf("overflow joint index: got %v want %v", got, want)
	}
}

func maxAbs(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > best {
			best = a
		}
	}
	return best
}

func pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func ExamplePropertyNames() {
	names := PropertyNames()
	fmt.Println(len(names), names[0])
	// Output: 122 actual_q_0
}

// TestSubscriptionReceivesLiveSamples: a sample hook is the monitor's live
// feed. It sees every sample RecordMove records, one 40 ms tick apart in
// order, while the simulated clock still reads the sample's time, each
// with the full property vector.
func TestSubscriptionReceivesLiveSamples(t *testing.T) {
	m, clock := newTestMonitor(1)
	var got []Sample
	m.SetOnSample(func(s Sample) {
		if !s.Time.Equal(clock.Now()) {
			t.Errorf("sample at %v reached the hook at %v", s.Time, clock.Now())
		}
		got = append(got, s)
	})
	m.RecordMove(testMove(t, "L0", "L1", 200))
	if len(got) == 0 || len(got) != m.Len() {
		t.Fatalf("hook saw %d samples, monitor recorded %d", len(got), m.Len())
	}
	tick := time.Duration(SamplePeriod * float64(time.Second))
	for i, s := range got {
		if len(s.Values) != NumProperties {
			t.Fatalf("sample %d has %d values", i, len(s.Values))
		}
		if i > 0 && s.Time.Sub(got[i-1].Time) != tick {
			t.Fatalf("sample %d at %v, %v after sample %d", i, s.Time, s.Time.Sub(got[i-1].Time), i-1)
		}
	}
}

// TestMultipleSubscribersIndependent: every hook sees every sample
// recorded after it was added, whatever the other hooks do.
func TestMultipleSubscribersIndependent(t *testing.T) {
	m, _ := newTestMonitor(1)
	var a, b int
	m.SetOnSample(func(Sample) { a++ })
	m.RecordQuiescent(time.Second) // 25 samples
	m.SetOnSample(func(Sample) { b++ })
	m.RecordQuiescent(time.Second)
	if a != 50 || b != 25 {
		t.Errorf("hooks saw %d and %d samples, want 50 and 25", a, b)
	}
}
