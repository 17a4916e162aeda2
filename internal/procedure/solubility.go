package procedure

import (
	"time"

	"rad/internal/robot"
)

// vialPayloadKg is the mass the UR3e carries while it grips a vial: an
// empty 20 mL vial.
const vialPayloadKg = 0.020

// Solids used in the solubility screens, with the typical number of
// dissolution iterations each needs (more solvent additions for the less
// soluble solids). The solid changes loop counts — not robot trajectories —
// which is the basis of the Fig. 7(b) invariance claim.
var solidIterations = map[string]int{
	"NABH4":     2,
	"CSTI":      3,
	"GENTISTIC": 4,
}

// defaultSolid is used when Options.Solid is empty.
const defaultSolid = "NABH4"

func (s *script) dissolutionIterations() int {
	solid := s.opts.Solid
	if solid == "" {
		solid = defaultSolid
	}
	if n, ok := solidIterations[solid]; ok {
		return n
	}
	return 2 + s.rng.IntN(3)
}

func (s *script) vials() int {
	if s.opts.Vials > 0 {
		return s.opts.Vials
	}
	return 3
}

// RunSolubilityN9 executes P1: the Hein Lab's closed-loop automated
// solubility screen using the N9 arm, Quantos, Tecan, and IKA. Per vial, the
// N9 moves the vial through the stations, the Quantos doses solid, and the
// loop adds solvent and stirs until image analysis reports dissolution.
func RunSolubilityN9(lab *Lab, opts Options) Result {
	s := newScript(lab, P1, opts)
	return s.finish(s.solubilityN9Body())
}

func (s *script) solubilityN9Body() error {
	// Run 12's quirk: the operator used the joystick to drive N9 to its
	// start position before launching the automated script.
	if s.opts.JoystickPrefix > 0 {
		if err := s.mustExec(s.lab.C9, "__init__"); err != nil {
			return err
		}
		if err := s.joystickPresses(s.opts.JoystickPrefix); err != nil {
			return err
		}
	}
	if err := s.initDevices(true, false); err != nil {
		return err
	}
	if err := s.n9Setup(); err != nil {
		return err
	}
	for v := 0; v < s.vials(); v++ {
		if err := s.n9MoveVial("rack", "quantos"); err != nil {
			return err
		}
		if s.opts.StopBeforeDosing {
			return errStop
		}
		if err := s.doseSolid(); err != nil {
			return err
		}
		if err := s.n9MoveVial("quantos", "stir"); err != nil {
			return err
		}
		if err := s.dissolutionLoop(); err != nil {
			return err
		}
		if err := s.n9MoveVial("stir", "rack"); err != nil {
			return err
		}
		if err := s.maybeQuirk(); err != nil {
			return err
		}
	}
	return nil
}

// RunSolubilityN9UR executes P2: the solubility screen extended with the
// UR3e, which performs the vial transfers (and whose power telemetry §VI
// analyzes). The script opens with the five-segment L0→L5 move_joints sweep
// of Fig. 7(a), then runs the screen with UR3e doing pick-and-place.
func RunSolubilityN9UR(lab *Lab, opts Options) Result {
	s := newScript(lab, P2, opts)
	return s.finish(s.solubilityN9URBody())
}

func (s *script) solubilityN9URBody() error {
	if err := s.initDevices(true, true); err != nil {
		return err
	}
	if err := s.n9Setup(); err != nil {
		return err
	}
	// Calibration sweep: the five move_joints segments L0→L1 … L4→L5.
	if err := s.urSweep(); err != nil {
		return err
	}
	for v := 0; v < s.vials(); v++ {
		if err := s.urMoveVial("rack", "quantos"); err != nil {
			return err
		}
		if s.opts.StopBeforeDosing {
			return errStop
		}
		if err := s.doseSolid(); err != nil {
			return err
		}
		if err := s.urMoveVial("quantos", "home"); err != nil {
			return err
		}
		if err := s.dissolutionLoop(); err != nil {
			return err
		}
		if err := s.urMoveVial("home", "rack"); err != nil {
			return err
		}
		if err := s.maybeQuirk(); err != nil {
			return err
		}
	}
	return nil
}

// RunCrystalSolubility executes P3: the crystal solubility profiling screen,
// which is dominated by thermal ramps on the IKA (heat, hold, poll the
// sensors, cool) with Tecan dispensing and N9 vial shuttling.
func RunCrystalSolubility(lab *Lab, opts Options) Result {
	s := newScript(lab, P3, opts)
	return s.finish(s.crystalBody())
}

func (s *script) crystalBody() error {
	if err := s.initDevices(false, false); err != nil {
		return err
	}
	if err := s.n9Setup(); err != nil {
		return err
	}
	for v := 0; v < s.vials(); v++ {
		if err := s.n9MoveVial("rack", "stir"); err != nil {
			return err
		}
		// Dispense solvent, then profile solubility across a heating and
		// cooling ramp while polling both temperature sensors.
		if err := s.tecanDispense(); err != nil {
			return err
		}
		if err := s.thermalRamp(75); err != nil {
			return err
		}
		if err := s.thermalRamp(25); err != nil {
			return err
		}
		if err := s.n9MoveVial("stir", "rack"); err != nil {
			return err
		}
		if err := s.maybeQuirk(); err != nil {
			return err
		}
	}
	return nil
}

// --- shared building blocks ---

// initDevices connects the devices a screen uses. withQuantos and withUR
// select the screen's station set; C9, Tecan, and IKA are always used.
func (s *script) initDevices(withQuantos, withUR bool) error {
	if s.opts.JoystickPrefix == 0 {
		if err := s.mustExec(s.lab.C9, "__init__"); err != nil {
			return err
		}
	}
	if withUR {
		if err := s.mustExec(s.lab.UR3e, "__init__"); err != nil {
			return err
		}
	}
	if withQuantos {
		if err := s.mustExec(s.lab.Quantos, "__init__"); err != nil {
			return err
		}
	}
	if err := s.mustExec(s.lab.Tecan, "__init__"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.IKA, "__init__"); err != nil {
		return err
	}
	return nil
}

// n9Setup configures the N9 before a screen: home, speed, elbow bias,
// gripper length.
func (s *script) n9Setup() error {
	if err := s.mustExec(s.lab.C9, "HOME"); err != nil {
		return err
	}
	if err := s.pollMVNG(3); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.C9, "SPED", f(150)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.C9, "BIAS", f(0.2)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.C9, "JLEN", f(95)); err != nil {
		return err
	}
	return nil
}

// stations maps station names to N9 workspace coordinates.
var stations = map[string][3]float64{
	"rack":    {120, 40, 10},
	"quantos": {260, -80, 35},
	"stir":    {180, 140, 20},
}

// n9MoveVial picks a vial at from and places it at to using the C9 arm:
// ARM moves with MVNG polling and gripper actions.
func (s *script) n9MoveVial(from, to string) error {
	src, dst := stations[from], stations[to]
	steps := [][3]float64{src, dst}
	if err := s.mustExec(s.lab.C9, "GRIP", "open"); err != nil {
		return err
	}
	for n, p := range steps {
		if err := s.mustExec(s.lab.C9, "ARM", f(p[0]), f(p[1]), f(p[2])); err != nil {
			return err
		}
		if err := s.pollMVNG(2 + s.rng.IntN(3)); err != nil {
			return err
		}
		if n == 0 {
			if err := s.mustExec(s.lab.C9, "GRIP", "close"); err != nil {
				return err
			}
		}
	}
	if err := s.mustExec(s.lab.C9, "GRIP", "open"); err != nil {
		return err
	}
	return nil
}

// urSweep runs the five-segment L0→L5 move_joints calibration sweep.
func (s *script) urSweep() error {
	for _, loc := range []string{"L0", "L1", "L2", "L3", "L4", "L5"} {
		if err := s.mustExec(s.lab.UR3e, "move_to_location", loc, f(robot.DefaultVelocityMMS)); err != nil {
			return err
		}
	}
	return nil
}

// urMoveVial transfers a vial with the UR3e. The vial's mass becomes the
// arm's payload while the gripper is closed.
func (s *script) urMoveVial(from, to string) error {
	waypoints := map[string][]string{
		"rack":    {"above_rack", "storage_rack"},
		"quantos": {"above_quantos", "quantos_tray"},
		"home":    {"home"},
	}
	vel := f(robot.DefaultVelocityMMS)
	// Physical context: the vial's mass becomes the payload on grip. When
	// the raw simulator lives on the far side of a middlebox (REMOTE-only
	// deployments such as cmd/radtrace), the lab computer has no handle to
	// it — exactly as in the real lab, where mass is physics, not software.
	if s.lab.Raw.UR3e != nil {
		s.lab.Raw.UR3e.SetNextPayload(vialPayloadKg)
	}
	for _, loc := range waypoints[from] {
		if err := s.mustExec(s.lab.UR3e, "move_to_location", loc, vel); err != nil {
			return err
		}
	}
	if err := s.mustExec(s.lab.UR3e, "close_gripper"); err != nil {
		return err
	}
	for _, loc := range waypoints[to] {
		if err := s.mustExec(s.lab.UR3e, "move_to_location", loc, vel); err != nil {
			return err
		}
	}
	if err := s.mustExec(s.lab.UR3e, "open_gripper"); err != nil {
		return err
	}
	return nil
}

// doseSolid runs the Quantos dosing station: open the door for vial
// placement, dose toward the target mass, read the result.
func (s *script) doseSolid() error {
	if err := s.mustExec(s.lab.Quantos, "front_door", "open"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "move_z_axis", f(400)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "front_door", "close"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "lock_dosing_pin_position"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "zero"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "target_mass", f(30+s.rng.Float64()*40)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "start_dosing"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "unlock_dosing_pin_position"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Quantos, "front_door", "open"); err != nil {
		return err
	}
	return nil
}

// tecanDispense adds solvent: set velocity, select the solvent valve, move
// the plunger, and poll status until idle.
func (s *script) tecanDispense() error {
	if err := s.mustExec(s.lab.Tecan, "V", f(1200)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Tecan, "I", i(1+s.rng.IntN(3))); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.Tecan, "A", f(500+s.rng.Float64()*2000)); err != nil {
		return err
	}
	polls := 2 + s.rng.IntN(4)
	for k := 0; k < polls; k++ {
		if _, err := s.exec(s.lab.Tecan, "Q"); err != nil {
			return err
		}
		s.think(s.jitterDur(400*time.Millisecond, 0.5))
	}
	return nil
}

// stirAndCheck stirs the vial and polls the stirring speed, then waits for
// image analysis.
func (s *script) stirAndCheck() error {
	if err := s.mustExec(s.lab.IKA, "OUT_SP_4", f(300)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.IKA, "START_4"); err != nil {
		return err
	}
	polls := 3 + s.rng.IntN(3)
	for k := 0; k < polls; k++ {
		if _, err := s.exec(s.lab.IKA, "IN_PV_4"); err != nil {
			return err
		}
		s.think(s.jitterDur(2*time.Second, 0.5))
	}
	if err := s.mustExec(s.lab.IKA, "STOP_4"); err != nil {
		return err
	}
	s.think(s.jitterDur(3*time.Second, 0.5)) // computer-vision dissolution check
	return nil
}

// dissolutionLoop adds solvent and stirs until the solid dissolves (the
// iteration count depends on the solid).
func (s *script) dissolutionLoop() error {
	for it := 0; it < s.dissolutionIterations(); it++ {
		if err := s.tecanDispense(); err != nil {
			return err
		}
		if err := s.stirAndCheck(); err != nil {
			return err
		}
	}
	return nil
}

// thermalRamp drives the hotplate toward targetC while stirring gently and
// polling both temperature sensors.
func (s *script) thermalRamp(targetC float64) error {
	if err := s.mustExec(s.lab.IKA, "OUT_SP_1", f(targetC)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.IKA, "START_1"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.IKA, "OUT_SP_4", f(150)); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.IKA, "START_4"); err != nil {
		return err
	}
	polls := 4 + s.rng.IntN(4)
	for k := 0; k < polls; k++ {
		if _, err := s.exec(s.lab.IKA, "IN_PV_1"); err != nil {
			return err
		}
		if _, err := s.exec(s.lab.IKA, "IN_PV_2"); err != nil {
			return err
		}
		s.think(s.jitterDur(20*time.Second, 0.5))
	}
	if err := s.mustExec(s.lab.IKA, "STOP_1"); err != nil {
		return err
	}
	if err := s.mustExec(s.lab.IKA, "STOP_4"); err != nil {
		return err
	}
	return nil
}

// pollMVNG polls the C9 moving states n times with short gaps.
func (s *script) pollMVNG(n int) error {
	for k := 0; k < n; k++ {
		if _, err := s.exec(s.lab.C9, "MVNG"); err != nil {
			return err
		}
		s.think(s.jitterDur(100*time.Millisecond, 0.5))
	}
	return nil
}
