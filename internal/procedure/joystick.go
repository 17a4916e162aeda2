package procedure

import (
	"time"
)

// RunJoystick executes a P4 joystick session: a user drives the N9 arm with
// continuous button presses to lift, uncap, and place vials. The joystick
// API translates each held button into a stream of ARM commands interleaved
// with MVNG polls — the source of Fig. 5(b)'s dominant ARM/MVNG n-grams —
// with occasional CURR/MOVE axis nudges and JLEN gripper adjustments.
//
// opts.Presses is the number of button presses; 0 uses a typical session
// length.
func RunJoystick(lab *Lab, opts Options) Result {
	s := newScript(lab, Joystick, opts)
	return s.finish(s.joystickBody(s.opts.Presses))
}

func (s *script) joystickBody(presses int) error {
	if presses <= 0 {
		presses = 30 + s.rng.IntN(20)
	}
	if err := s.mustExec(s.lab.C9, "__init__"); err != nil {
		return err
	}
	if err := s.joystickPresses(presses); err != nil {
		return err
	}
	return nil
}

// joystickPresses emits the command stream of the given number of button
// presses. It is shared with RunSolubilityN9's joystick-prefix option
// (run 12 used the joystick to move N9 to its start position).
func (s *script) joystickPresses(presses int) error {
	rng := s.rng
	pos := [3]float64{0, 0, 0}
	for p := 0; p < presses; p++ {
		// Held button: a burst of ARM commands stepping toward the target,
		// with MVNG polls woven in while the arm chases the setpoints.
		burst := 2 + rng.IntN(6)
		axis := rng.IntN(3)
		step := (rng.Float64()*8 + 2) * float64(1-2*rng.IntN(2)) // ±2..10 mm
		for k := 0; k < burst; k++ {
			pos[axis] += step
			if _, err := s.exec(s.lab.C9, "ARM", f(pos[0]), f(pos[1]), f(pos[2])); err != nil {
				return err
			}
			if rng.Float64() < 0.6 {
				if _, err := s.exec(s.lab.C9, "MVNG"); err != nil {
					return err
				}
			}
			s.think(s.jitterDur(40*time.Millisecond, 1.0))
		}
		// Button released: poll until the arm settles.
		polls := 1 + rng.IntN(3)
		for k := 0; k < polls; k++ {
			if _, err := s.exec(s.lab.C9, "MVNG"); err != nil {
				return err
			}
			s.think(s.jitterDur(60*time.Millisecond, 0.5))
		}
		// Occasional fine-positioning: read an axis current, nudge the axis.
		if rng.Float64() < 0.18 {
			axis := rng.IntN(4)
			if _, err := s.exec(s.lab.C9, "CURR", i(axis)); err != nil {
				return err
			}
			if _, err := s.exec(s.lab.C9, "MOVE", i(axis), f(rng.Float64()*50)); err != nil {
				return err
			}
			if _, err := s.exec(s.lab.C9, "MVNG"); err != nil {
				return err
			}
		}
		// Occasional gripper-length change before the next press.
		if rng.Float64() < 0.10 {
			if _, err := s.exec(s.lab.C9, "JLEN", f(80+rng.Float64()*40)); err != nil {
				return err
			}
		}
		s.think(s.jitterDur(300*time.Millisecond, 1.0))
		// Mid-session distractions: the operator occasionally stops to poke
		// at other devices.
		if p > 0 && p%12 == 0 {
			if err := s.maybeQuirk(); err != nil {
				return err
			}
		}
	}
	return nil
}
