// Package device defines the common model for the Hein Lab's CPS devices:
// the command/response types exchanged across the data-collection boundary,
// the Device interface implemented by every simulator, the shared simulation
// environment (clock + seeded randomness), and the catalog of the 52 command
// types that appear in the Robotic Arm Dataset (Fig. 5a).
//
// The paper traces five logical devices — C9 (the N9 robot arm and the
// centrifuge behind North Robotics' controller box), UR3e, IKA, Tecan, and
// Quantos — each exposing a small device-specific command language. The
// subpackages device/c9, device/ur3e, device/ika, device/tecan, and
// device/quantos implement protocol-faithful simulators for them.
package device

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"rad/internal/simclock"
)

// Device names as they appear in the dataset.
const (
	C9      = "C9"
	UR3e    = "UR3e"
	IKA     = "IKA"
	Tecan   = "Tecan"
	Quantos = "Quantos"
)

// Names lists the five logical devices in Fig. 5(a) legend order
// (descending trace-object count).
func Names() []string {
	return []string{C9, Tecan, IKA, UR3e, Quantos}
}

// Init is the command name used for device construction. The Hein Lab's
// Python stack logs __init__ accesses when a device class is instantiated;
// the simulators log the same event when a session opens.
const Init = "__init__"

// Command is a single device access crossing the data-collection boundary:
// one method call on a virtualized class in RATracer terms.
type Command struct {
	Device string   `json:"device"`
	Name   string   `json:"name"`
	Args   []string `json:"args,omitempty"`
}

// String renders the command the way the dataset's human-readable trace
// format does: DEVICE.NAME(arg1, arg2, ...).
func (c Command) String() string {
	return c.Device + "." + c.Name + "(" + strings.Join(c.Args, ", ") + ")"
}

// Device is the interface every simulated CPS device implements. Exec
// processes one command synchronously and returns the device's response
// value. Errors model device-reported faults (bad arguments, hardware
// faults, collisions); they are traced like any other response, matching the
// paper's logging of exceptions.
type Device interface {
	// Name returns the device's dataset name (one of the constants above).
	Name() string
	// Exec handles a single command and returns its response value.
	Exec(cmd Command) (string, error)
}

// Faultable is implemented by devices that support fault injection. The
// supervised anomalies in RAD are physical crashes (e.g. the Quantos front
// door hitting the UR3e); procedures inject those faults through this
// interface so the resulting traces carry crash signatures.
type Faultable interface {
	// InjectFault arms a fault. The device reports it on every subsequent
	// relevant command.
	InjectFault(reason string)
}

// Sentinel errors shared by the device simulators.
var (
	// ErrUnknownCommand is returned for a command name the device does not
	// implement.
	ErrUnknownCommand = errors.New("device: unknown command")
	// ErrBadArgs is returned when a command's arguments cannot be parsed or
	// are out of range.
	ErrBadArgs = errors.New("device: bad arguments")
	// ErrNotConnected is returned when a command other than __init__ arrives
	// before the device session was initialized.
	ErrNotConnected = errors.New("device: not connected")
)

// OneFloat parses a command's arguments as exactly one float, failing with
// ErrBadArgs otherwise.
func OneFloat(args []string) (float64, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("want 1 argument, got %d: %w", len(args), ErrBadArgs)
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return 0, fmt.Errorf("argument %q: %w", args[0], ErrBadArgs)
	}
	return v, nil
}

// FaultError is the error reported when an armed fault fires — the simulated
// analog of a robot collision or hardware crash. Traces record it in the
// exception field.
type FaultError struct {
	Device string
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("%s: hardware fault: %s", e.Device, e.Reason)
}

// Env is the shared simulation environment injected into every device: the
// clock that response latencies are charged to and a seeded PRNG for jitter
// and measurement noise. Using an injected clock lets the same device code
// run in real time (Fig. 4 latency runs) and virtual time (three-month
// campaign generation).
//
// Env is safe for concurrent use: devices may be driven from several
// middlebox connections at once, and math/rand/v2.Rand is not itself
// thread-safe.
type Env struct {
	Clock simclock.Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// NewEnv builds an Env from a clock and a deterministic seed.
func NewEnv(clock simclock.Clock, seed uint64) *Env {
	return &Env{
		Clock: clock,
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Spend charges base plus uniform jitter in [0, jitter) to the clock,
// modelling the device's command-processing latency.
func (e *Env) Spend(base, jitter time.Duration) {
	d := base
	if jitter > 0 {
		e.mu.Lock()
		d += time.Duration(e.rng.Int64N(int64(jitter)))
		e.mu.Unlock()
	}
	e.Clock.Sleep(d)
}

// Noise returns a sample from a zero-mean normal distribution with the given
// standard deviation, used for simulated sensor readings.
func (e *Env) Noise(stddev float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rng.NormFloat64() * stddev
}
