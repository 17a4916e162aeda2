package power

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"rad/internal/robot"
	"rad/internal/simclock"
)

// Monitor is the RATracer power-monitoring module (Fig. 3, bottom): it
// samples the simulated UR3e's 122 RTDE properties every 40 ms while the arm
// moves and, optionally, while it idles. The paper stores quiescent-period
// entries only on days with activity; callers control that by choosing when
// to call RecordQuiescent.
//
// A Monitor forwards each sample to its hooks (SetOnSample) and keeps none:
// a consumer that needs a capture collects one from a hook, as the paper's
// collector writes the RTDE feed to its power dataset.
//
// A Monitor is safe for concurrent use; the UR3e device simulator drives it
// from whatever goroutine serves the command.
type Monitor struct {
	model Model
	clock simclock.Clock

	mu       sync.Mutex
	rng      *rand.Rand
	recorded int     // samples recorded so far
	payload  float64 // currently carried payload, kg
	lastPose robot.Config
	onSample []func(Sample)
}

// NewMonitor creates a monitor with the given current model, clock, and
// deterministic seed. The arm is assumed to start at the "home" pose.
func NewMonitor(model Model, clock simclock.Clock, seed uint64) *Monitor {
	home, _ := robot.Location("home")
	return &Monitor{
		model:    model,
		clock:    clock,
		rng:      rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb)),
		lastPose: home,
	}
}

// SetOnSample adds a hook that receives every sample the monitor records,
// as the paper's power-monitoring module receives them from the UR3e's
// real-time interface (`while True: data = rtde.receive(...)` at 25 Hz,
// Fig. 3, bottom). It never replaces a hook; hooks run in the order they
// were added. They run on the goroutine driving the arm, while the
// monitor's lock is held: they must never block (a slow consumer must not
// stall the robot), must not call back into the monitor, and must not
// modify the sample's Values.
func (m *Monitor) SetOnSample(fn func(Sample)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onSample = append(m.onSample, fn)
}

// SetPayload records the mass (kg) currently carried by the gripper. Weights
// are not command arguments (§VI) — they are an artifact of what the arm
// picked up — so the monitor tracks them out of band, exactly as physics
// would.
func (m *Monitor) SetPayload(kg float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if kg < 0 {
		kg = 0
	}
	m.payload = kg
}

// Payload returns the currently tracked payload mass in kg.
func (m *Monitor) Payload() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.payload
}

// Pose returns the arm's last known joint configuration.
func (m *Monitor) Pose() robot.Config {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastPose
}

// RecordMove executes the move in simulated time: it advances the clock by
// the move's duration, records one sample per 40 ms tick, and updates the
// tracked pose.
func (m *Monitor) RecordMove(mv *robot.Move) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dur := mv.Duration()
	for t := 0.0; t < dur; t += SamplePeriod {
		m.recordLocked(mv.StateAt(t))
		m.clock.Sleep(time.Duration(SamplePeriod * float64(time.Second)))
	}
	m.recordLocked(mv.StateAt(dur))
	m.lastPose = mv.To
}

// RecordQuiescent records idle samples (arm at rest at its last pose) for
// the given duration, advancing the clock.
func (m *Monitor) RecordQuiescent(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ticks := int(d.Seconds() / SamplePeriod)
	state := robot.State{Pos: m.lastPose}
	for i := 0; i < ticks; i++ {
		m.recordLocked(state)
		m.clock.Sleep(time.Duration(SamplePeriod * float64(time.Second)))
	}
}

// Len returns the number of samples recorded so far.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recorded
}

// recordLocked builds the full 122-property record for one kinematic state
// and hands it to every hook. Caller holds m.mu.
func (m *Monitor) recordLocked(s robot.State) {
	v := make([]float64, NumProperties)
	set := func(name string, val float64) {
		if i, ok := propertyIndex[name]; ok {
			v[i] = val
		}
	}
	for j := 0; j < robot.NumJoints; j++ {
		cur := m.model.Current(j, s, m.payload) + m.rng.NormFloat64()*m.model.Joints[j].NoiseStd
		mom := m.model.Moment(j, s, m.payload)
		v[jointIndex.actualQ[j]] = s.Pos[j] + m.rng.NormFloat64()*1e-4
		v[jointIndex.actualQd[j]] = s.Vel[j] + m.rng.NormFloat64()*1e-3
		v[jointIndex.actualQdd[j]] = s.Acc[j] + m.rng.NormFloat64()*1e-3
		v[jointIndex.actualCurrent[j]] = cur
		v[jointIndex.moment[j]] = mom
		v[jointIndex.temperature[j]] = 27.5 + 0.5*math.Abs(s.Vel[j]) + m.rng.NormFloat64()*0.05
		v[jointIndex.voltage[j]] = 48 + m.rng.NormFloat64()*0.1
		v[jointIndex.targetQ[j]] = s.Pos[j]
		v[jointIndex.targetQd[j]] = s.Vel[j]
		v[jointIndex.targetCurrent[j]] = m.model.Current(j, s, m.payload)
	}
	// Crude but consistent TCP proxy: planar forward kinematics from the
	// first three joints at the effective reach.
	reachM := robot.EffectiveReachMM / 1000
	x := reachM * math.Cos(s.Pos[0]) * math.Cos(s.Pos[1]+s.Pos[2])
	y := reachM * math.Sin(s.Pos[0]) * math.Cos(s.Pos[1]+s.Pos[2])
	z := 0.3 + reachM*math.Sin(s.Pos[1]+s.Pos[2])
	set("actual_tcp_pose_0", x)
	set("actual_tcp_pose_1", y)
	set("actual_tcp_pose_2", z)
	set("actual_tcp_pose_3", s.Pos[3])
	set("actual_tcp_pose_4", s.Pos[4])
	set("actual_tcp_pose_5", s.Pos[5])
	speed := reachM * math.Hypot(s.Vel[0], s.Vel[1]+s.Vel[2])
	set("actual_tcp_speed_0", speed)
	set("actual_tcp_force_2", -gravity*m.payload)
	set("target_tcp_pose_0", x)
	set("target_tcp_pose_1", y)
	set("target_tcp_pose_2", z)
	set("target_tcp_speed_0", speed)

	now := m.clock.Now()
	set("timestamp_s", float64(now.UnixNano())/1e9)
	totalCur := 0.0
	for _, i := range jointIndex.actualCurrent {
		totalCur += math.Abs(v[i])
	}
	set("robot_voltage", 48+m.rng.NormFloat64()*0.2)
	set("robot_current", 0.5+totalCur)
	set("robot_momentum", math.Abs(s.Vel[0])+math.Abs(s.Vel[1]))
	set("payload_mass", m.payload)
	set("payload_cog_z", 0.05)
	set("speed_scaling", 1)
	set("target_speed_fraction", 1)
	set("runtime_state", 2) // PLAYING
	set("safety_status", 1) // NORMAL
	set("robot_mode", 7)    // RUNNING
	for _, i := range jointIndex.mode {
		v[i] = 253 // RUNNING
	}
	set("tool_accelerometer_z", -gravity)
	set("elbow_position_x", x/2)
	set("elbow_position_y", y/2)
	set("elbow_position_z", 0.25)
	set("tool_output_voltage", 24)
	set("tcp_force_scalar", gravity*m.payload)

	sample := Sample{Time: now, Values: v}
	m.recorded++
	for _, fn := range m.onSample {
		fn(sample)
	}
}
