package procedure

// This file implements the controlled power experiments of §VI: P5 moves
// the UR3e between two fixed locations at different commanded velocities
// (Fig. 7c) and P6 moves payloads of different weights (Fig. 7d). Both keep
// every other argument constant so the current profiles isolate one factor.

// RunVelocityTest executes one P5 trial: move the arm L0→L1 and back at
// opts.VelocityMMS with no payload.
func RunVelocityTest(lab *Lab, opts Options) Result {
	s := newScript(lab, P5, opts)
	return s.finish(s.velocityBody())
}

func (s *script) velocityBody() error {
	if err := s.mustExec(s.lab.UR3e, "__init__"); err != nil {
		return err
	}
	vel := s.velocity()
	if err := s.mustExec(s.lab.UR3e, "move_to_location", "L0", f(vel)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.UR3e, "move_to_location", "L1", f(vel)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.UR3e, "move_to_location", "L0", f(vel)); err != nil {
		return err
	}
	return nil
}

// RunWeightTest executes one P6 trial: pick a payload of opts.PayloadKg at
// the storage rack, carry it to the Quantos tray at the default velocity,
// and set it down.
func RunWeightTest(lab *Lab, opts Options) Result {
	s := newScript(lab, P6, opts)
	return s.finish(s.weightBody())
}

func (s *script) weightBody() error {
	if err := s.mustExec(s.lab.UR3e, "__init__"); err != nil {
		return err
	}
	vel := s.velocity()
	if err := s.mustExec(s.lab.UR3e, "move_to_location", "storage_rack", f(vel)); err != nil {
		return err
	}
	s.lab.Raw.UR3e.SetNextPayload(s.opts.PayloadKg)
	if err := s.mustExec(s.lab.UR3e, "close_gripper"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.UR3e, "move_to_location", "quantos_tray", f(vel)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.UR3e, "open_gripper"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.UR3e, "move_to_location", "home", f(vel)); err != nil {
		return err
	}
	return nil
}
