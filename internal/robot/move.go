package robot

import (
	"fmt"
	"math"
)

// NumJoints is the number of joints on the UR3e arm. The power dataset
// records joint-specific properties for each of the six joints (§IV).
const NumJoints = 6

// Config is a joint-space configuration: one angle (radians) per joint.
type Config [NumJoints]float64

// Sub returns the per-joint difference c - o.
func (c Config) Sub(o Config) Config {
	var d Config
	for i := range c {
		d[i] = c[i] - o[i]
	}
	return d
}

// MaxAbs returns the largest absolute joint value, and its index.
func (c Config) MaxAbs() (float64, int) {
	best, idx := 0.0, 0
	for i, v := range c {
		if a := math.Abs(v); a > best {
			best, idx = a, i
		}
	}
	return best, idx
}

// State is the kinematic state of all joints at one instant of a move.
type State struct {
	Pos [NumJoints]float64 // joint angles (rad)
	Vel [NumJoints]float64 // joint velocities (rad/s)
	Acc [NumJoints]float64 // joint accelerations (rad/s^2)
}

// Move is a synchronized joint-space motion from one configuration to
// another: the leading joint (largest excursion) follows a trapezoidal
// profile at the commanded limits and every other joint is time-scaled to
// finish simultaneously, which is how industrial controllers execute movej.
type Move struct {
	From, To Config

	lead    Profile            // profile of the leading joint
	leadD   float64            // leading distance (rad)
	deltas  Config             // signed per-joint excursions
	elapsed float64            // duration cache
	scale   [NumJoints]float64 // per-joint fraction of the leading profile
}

// NewMove plans a synchronized move between two configurations with the
// given velocity (rad/s) and acceleration (rad/s^2) limits on the leading
// joint.
func NewMove(from, to Config, vmax, amax float64) (*Move, error) {
	deltas := to.Sub(from)
	leadD, _ := deltas.MaxAbs()
	lead, err := NewProfile(leadD, vmax, amax)
	if err != nil {
		return nil, fmt.Errorf("robot: plan move: %w", err)
	}
	m := &Move{From: from, To: to, lead: lead, leadD: leadD, deltas: deltas, elapsed: lead.Duration()}
	for i, d := range deltas {
		if leadD > 0 {
			m.scale[i] = d / leadD // signed fraction, |scale| <= 1
		}
	}
	return m, nil
}

// Duration returns the move's total duration in seconds.
func (m *Move) Duration() float64 { return m.elapsed }

// StateAt returns the joint state at time t into the move. Times outside
// [0, Duration] clamp to the endpoints with zero velocity and acceleration.
func (m *Move) StateAt(t float64) State {
	var s State
	p := m.lead.Position(t)
	v := m.lead.Velocity(t)
	a := m.lead.Accel(t)
	for i := range s.Pos {
		s.Pos[i] = m.From[i] + m.scale[i]*p
		s.Vel[i] = m.scale[i] * v
		s.Acc[i] = m.scale[i] * a
	}
	return s
}
