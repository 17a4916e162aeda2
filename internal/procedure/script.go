package procedure

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"rad/internal/device"
	"rad/internal/tracer"
)

// CrashPlan schedules a physical crash partway through a procedure — the
// mechanism behind RAD's three supervised anomalies (runs 16, 17, and 22).
type CrashPlan struct {
	// Device names the device whose next relevant command reports the fault.
	Device string
	// Reason is the fault description, e.g. "Quantos front door crashed
	// into UR3e".
	Reason string
	// AfterCommands arms the fault once this many commands have executed.
	AfterCommands int
}

// Options tune a supervised procedure run; the defaults produce a complete,
// benign execution.
type Options struct {
	// Run is the run label recorded in every trace (e.g. "run-17").
	Run string
	// Vials is the number of vials screened (loop iterations). Zero means
	// the procedure's default.
	Vials int
	// Solid selects the solid dosed in solubility runs; it changes how many
	// dissolution iterations each vial needs, but not robot trajectories
	// (the Fig. 7b invariance).
	Solid string
	// Presses is the number of button presses of a P4 joystick session;
	// zero means a typical session length. Other procedures ignore it.
	Presses int
	// JoystickPrefix prepends a joystick positioning session of the given
	// number of button presses (run 12 used the joystick to move N9 to its
	// starting position).
	JoystickPrefix int
	// StopAfterCommands terminates the run silently once this many commands
	// have executed — an operator stopping the process on the lab computer
	// (run 18's wrong gripper configuration; run 12's solid shortage). Zero
	// disables.
	StopAfterCommands int
	// StopBeforeDosing terminates a solubility run just before its first
	// Quantos dosing cycle — run 12 ran out of solid and "executed none of
	// the Quantos and Tecan commands" of the automated screen.
	StopBeforeDosing bool
	// Seed, when nonzero, gives the run its own private random stream so an
	// identically-configured run issues an identical command sequence
	// regardless of surrounding lab activity. Zero uses the lab's shared
	// stream.
	Seed uint64
	// Quirks injects this many benign operator detours at phase boundaries:
	// short bursts of manual checks (position reads, settings queries,
	// re-taring) that interrupt the script's regular rhythm. Real lab runs
	// are full of such irregularities; they are what gives the perplexity
	// IDS its false positives (§V-B: "our models raise too many false
	// positives").
	Quirks int
	// Unsupervised drops the procedure label: the run is logged as "unknown
	// procedure" like the bulk of the three-month campaign (§IV).
	Unsupervised bool
	// Crash schedules an anomaly.
	Crash *CrashPlan
}

// Stopped is the sentinel termination cause for operator-stopped runs.
var Stopped = errors.New("procedure: stopped by operator")

// Result summarizes a procedure run.
type Result struct {
	Procedure string
	Run       string
	// Commands is the number of commands the run issued.
	Commands int
	// Anomalous marks runs that ended in a physical crash. Operator-stopped
	// runs are benign (§IV).
	Anomalous bool
	// Err is the termination cause: nil for complete runs, Stopped for
	// operator stops, the device fault for crashes.
	Err error
}

// Run executes the procedure labelled label (P1, P2, P3 or P4) on lab. An
// unknown label runs nothing and returns a Result whose Err names it.
func Run(lab *Lab, label string, opts Options) Result {
	switch label {
	case P1:
		return RunSolubilityN9(lab, opts)
	case P2:
		return RunSolubilityN9UR(lab, opts)
	case P3:
		return RunCrystalSolubility(lab, opts)
	case Joystick:
		return RunJoystick(lab, opts)
	}
	return Result{Procedure: label, Run: opts.Run, Err: fmt.Errorf("unknown procedure %q", label)}
}

// script is the execution context threaded through a procedure body. It
// counts commands, arms scheduled crashes, detects stop conditions, and
// aborts the body via errStop/errCrashed sentinels.
type script struct {
	lab  *Lab
	opts Options
	res  Result
	rng  *rand.Rand

	commands int
	crashErr error
}

var (
	errStop    = errors.New("procedure: stop requested")
	errCrashed = errors.New("procedure: crashed")
)

func newScript(lab *Lab, label string, opts Options) *script {
	// Supervised runs label every trace they produce; unsupervised activity
	// (label == "") is logged as "unknown procedure" by the middlebox.
	if opts.Unsupervised {
		label = ""
		opts.Run = ""
	}
	lab.Session.SetLabels(label, opts.Run)
	rng := lab.RNG
	if opts.Seed != 0 {
		rng = rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x6a09e667f3bcc909))
	}
	return &script{lab: lab, opts: opts, rng: rng, res: Result{Procedure: label, Run: opts.Run}}
}

// exec issues one command through a virtualized device, handling crash
// arming, operator stops, and fault detection.
func (s *script) exec(dev device.Device, name string, args ...string) (string, error) {
	if s.opts.Crash != nil && s.commands == s.opts.Crash.AfterCommands {
		if f, ok := s.lab.Faultable(s.opts.Crash.Device); ok {
			f.InjectFault(s.opts.Crash.Reason)
		}
	}
	v, err := dev.Exec(device.Command{Device: dev.Name(), Name: name, Args: args})
	s.commands++
	if err != nil && isHardwareFault(err) {
		s.crashErr = err
		return v, errCrashed
	}
	if s.opts.StopAfterCommands > 0 && s.commands >= s.opts.StopAfterCommands {
		return v, errStop
	}
	return v, err
}

// mustExec is exec for commands whose device-level errors a script treats as
// fatal (they still propagate crash/stop sentinels).
func (s *script) mustExec(dev device.Device, name string, args ...string) error {
	_, err := s.exec(dev, name, args...)
	return err
}

// isHardwareFault recognizes a device fault both locally (DIRECT mode) and
// through the middlebox (REMOTE mode, where errors arrive as strings).
func isHardwareFault(err error) bool {
	var fe *device.FaultError
	if errors.As(err, &fe) {
		return true
	}
	var re *tracer.RemoteError
	if errors.As(err, &re) {
		return strings.Contains(re.Msg, "hardware fault")
	}
	return false
}

// finish converts a body error into the run Result, running the crash
// epilogue for anomalies.
func (s *script) finish(err error) Result {
	switch {
	case err == nil:
		// Completed normally.
	case errors.Is(err, errStop):
		s.res.Err = Stopped
	case errors.Is(err, errCrashed):
		s.res.Anomalous = true
		s.res.Err = s.crashErr
		s.crashEpilogue()
	default:
		s.res.Err = err
	}
	s.res.Commands = s.commands
	s.lab.Session.SetLabels("", "")
	return s.res
}

// crashEpilogue emits the operator's emergency response after a physical
// crash: an immediate status storm, emergency stops across every actuating
// device, repeated recovery attempts against the crashed hardware (which
// keep failing and logging exceptions), and finally a re-initialization
// attempt before the process is killed. The resulting command orderings
// (stops interleaved with cross-device polls and re-inits) occur nowhere in
// benign traces, which is what gives anomalous runs their perplexity
// signature (§V-B) while remaining a small enough share of the run that its
// TF-IDF fingerprint stays procedure-like (§V-A, run 22).
func (s *script) crashEpilogue() {
	emit := func(dev device.Device, name string, args ...string) {
		_, _ = dev.Exec(device.Command{Device: dev.Name(), Name: name, Args: args})
		s.commands++
	}
	// Status storm: is anything still moving? What are the axes drawing?
	for k := 0; k < 4; k++ {
		emit(s.lab.C9, "MVNG")
		emit(s.lab.C9, "CURR", i(k%4))
	}
	// Frantic recovery: the operator interleaves emergency stops, status
	// polls, and recovery attempts against the crashed hardware in no
	// particular order until deciding to kill the process. Every crash
	// unfolds differently (the interleaving is drawn from the run's own
	// random stream), and recovery commands against faulted hardware keep
	// failing and logging exceptions.
	// The pool is weighted toward the everyday C9 status commands: a crash
	// response is mostly frantic polling with recovery actions mixed in, so
	// an anomalous run's command *frequencies* stay close to a normal trace
	// (TF-IDF, Fig. 6 run 22) while its command *orderings* are like nothing
	// in the benign corpus (perplexity, Table I).
	actions := []func(){
		func() { emit(s.lab.C9, "MVNG") },
		func() { emit(s.lab.C9, "MVNG") },
		func() { emit(s.lab.C9, "MVNG") },
		func() { emit(s.lab.C9, "MVNG") },
		func() { emit(s.lab.C9, "CURR", i(s.rng.IntN(4))) },
		func() { emit(s.lab.C9, "CURR", i(s.rng.IntN(4))) },
		func() { emit(s.lab.C9, "CURR", i(s.rng.IntN(4))) },
		func() { emit(s.lab.C9, "HOME") },
		func() { emit(s.lab.C9, "HOME") },
		func() { emit(s.lab.C9, "GRIP", "open") },
		func() { emit(s.lab.IKA, "STOP_4") },
		func() { emit(s.lab.IKA, "STOP_1") },
		func() { emit(s.lab.Tecan, "Q") },
		func() { emit(s.lab.Tecan, "Q") },
		func() { emit(s.lab.Tecan, "A", "0") },
		func() { emit(s.lab.Quantos, "front_door", "close") },
		func() { emit(s.lab.Quantos, "zero") },
		func() { emit(s.lab.Quantos, "unlock_dosing_pin_position") },
	}
	// The recovery session scales with how much of the run was underway: a
	// crash minutes into a screen gets a quick check-and-kill, a crash at
	// the end of an hour-long screen gets a full cleanup attempt.
	steps := s.commands / 3
	if steps < 15 {
		steps = 15
	}
	if steps > 75 {
		steps = 75
	}
	steps += s.rng.IntN(8)
	for k := 0; k < steps; k++ {
		actions[s.rng.IntN(len(actions))]()
	}
	// Last resort: power-cycle and re-init the crashed devices, then give up.
	emit(s.lab.C9, "__init__")
	emit(s.lab.Quantos, "__init__")
	emit(s.lab.C9, "MVNG")
	emit(s.lab.C9, "HOME")
	emit(s.lab.C9, "MVNG")
	s.think(30 * time.Second)
}

// maybeQuirk emits one benign operator detour if the run has quirk budget
// left: the operator pauses the script mentally and pokes at the devices —
// reading positions and settings, re-taring the balance, adjusting the
// gripper — before resuming. The commands are ordinary; their ordering is
// what a model trained on clean runs finds surprising.
func (s *script) maybeQuirk() error {
	if s.opts.Quirks <= 0 {
		return nil
	}
	s.opts.Quirks--
	type action struct {
		dev  string
		name string
		args []string
	}
	// The operator's checks are rituals — the same short sub-sequences every
	// time (read the axes, read the stirrer settings, inspect the pump
	// configuration, re-tare) — executed in whatever order occurs to them.
	// Structured-but-unusual behaviour like this is precisely what trips a
	// low-order model: the individual bigrams are rare against the
	// procedure's bulk, while a trigram model recognizes the ritual from
	// other runs (Table I: false positives shrink from bigram to trigram).
	rituals := [][]action{
		{
			// Axis inspection: rare reads sandwiched between the everyday
			// MVNG poll. A bigram sees each MVNG followed by something it
			// almost never follows MVNG with; a trigram sees the ritual's
			// own two-command contexts repeat across quirky runs.
			{device.C9, "POSN", []string{"0"}},
			{device.C9, "MVNG", nil},
			{device.C9, "POSN", []string{"1"}},
			{device.C9, "MVNG", nil},
			{device.C9, "CURR", []string{"0"}},
			{device.C9, "MVNG", nil},
			{device.C9, "JLEN", []string{f(95)}},
		},
		{
			// Stirrer settings check around the routine speed poll.
			{device.IKA, "IN_NAME", nil},
			{device.IKA, "IN_PV_4", nil},
			{device.IKA, "IN_SP_4", nil},
			{device.IKA, "IN_PV_4", nil},
			{device.IKA, "IN_SP_1", nil},
		},
		{
			// Pump configuration check around the routine status poll.
			{device.Tecan, "k", []string{i(5)}},
			{device.Tecan, "Q", nil},
			{device.Tecan, "L", []string{i(14)}},
			{device.Tecan, "Q", nil},
		},
		{
			{device.Quantos, "zero", nil},
			{device.Quantos, "set_home_direction", []string{"1"}},
			{device.Quantos, "zero", nil},
		},
	}
	nBlocks := 2 + s.rng.IntN(2)
	for b := 0; b < nBlocks; b++ {
		block := rituals[s.rng.IntN(len(rituals))]
		for _, a := range block {
			dev, ok := s.lab.Device(a.dev)
			if !ok {
				continue
			}
			// Quirk targets may not be initialized in every procedure; the
			// resulting traced error is part of the mess.
			if _, err := s.exec(dev, a.name, a.args...); err != nil {
				if errors.Is(err, errStop) || errors.Is(err, errCrashed) {
					return err
				}
			}
			s.think(s.jitterDur(500*time.Millisecond, 1.0))
		}
	}
	return nil
}

// think advances the clock for non-device work (image analysis, operator
// reaction, waiting on chemistry).
func (s *script) think(d time.Duration) { s.lab.Clock.Sleep(d) }

// jitterDur returns d scaled by a uniform factor in [1, 1+frac).
func (s *script) jitterDur(d time.Duration, frac float64) time.Duration {
	return d + time.Duration(s.rng.Float64()*frac*float64(d))
}

// f formats a float argument.
func f(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// i formats an int argument.
func i(v int) string { return strconv.Itoa(v) }
