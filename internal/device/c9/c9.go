// Package c9 simulates the C9: North Robotics' controller box driving the
// four-axis N9 robot arm and the Fisherbrand mini-centrifuge. The paper
// treats both as a single logical device because they share the controller
// (§III).
//
// The protocol is the terse four-letter command language visible in
// Fig. 5(a): ARM starts an arm motion, MVNG polls the per-axis moving
// states, MOVE drives a single axis, CURR reads an axis current, and so on.
// Motions are asynchronous — ARM returns as soon as the controller accepts
// the command and clients poll MVNG until all axes are stationary — which is
// why joystick traces are dominated by ARM/MVNG alternations (Fig. 5b).
package c9

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"rad/internal/device"
)

// NumAxes is the number of axes on the N9 arm (four-axis gantry arm).
const NumAxes = 4

// Device latency envelope: command processing takes a few milliseconds
// (Fig. 4: DIRECT-mode response times sit below 10 ms).
const (
	baseLatency   = 2 * time.Millisecond
	jitterLatency = 3 * time.Millisecond
)

// C9 is the simulated controller. It is safe for concurrent use.
type C9 struct {
	env *device.Env

	mu           sync.Mutex
	connected    bool
	axes         [NumAxes]float64 // positions, mm
	target       [NumAxes]float64
	moveUntil    time.Time
	speed        float64 // mm/s
	gripperLen   float64
	elbowBias    float64
	gripperOpen  bool
	centrifugeOn bool
	fault        string
}

var (
	_ device.Device    = (*C9)(nil)
	_ device.Faultable = (*C9)(nil)
)

// New returns a C9 simulator using the given environment.
func New(env *device.Env) *C9 {
	return &C9{env: env, speed: 150}
}

// Name implements device.Device.
func (c *C9) Name() string { return device.C9 }

// InjectFault arms a hardware fault: the next motion command reports it.
func (c *C9) InjectFault(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fault = reason
}

func (c *C9) movingLocked() bool {
	return c.env.Clock.Now().Before(c.moveUntil)
}

// settleLocked completes a finished motion by committing target positions.
func (c *C9) settleLocked() {
	if !c.movingLocked() {
		c.axes = c.target
	}
}

// Exec implements device.Device.
func (c *C9) Exec(cmd device.Command) (string, error) {
	c.env.Spend(baseLatency, jitterLatency)
	c.mu.Lock()
	defer c.mu.Unlock()

	if cmd.Name == device.Init {
		c.connected = true
		c.target = c.axes
		return "ok", nil
	}
	if !c.connected {
		return "", fmt.Errorf("C9 %s: %w", cmd.Name, device.ErrNotConnected)
	}
	c.settleLocked()

	switch cmd.Name {
	case "ARM":
		return c.arm(cmd.Args)
	case "MVNG":
		states := make([]string, NumAxes)
		moving := c.movingLocked()
		for i := range states {
			if moving {
				states[i] = "1"
			} else {
				states[i] = "0"
			}
		}
		return strings.Join(states, " "), nil
	case "MOVE":
		return c.moveAxis(cmd.Args)
	case "CURR":
		return c.axisCurrent(cmd.Args)
	case "POSN":
		return c.axisPosition(cmd.Args)
	case "JLEN":
		v, err := device.OneFloat(cmd.Args)
		if err != nil {
			return "", err
		}
		c.gripperLen = v
		return "ok", nil
	case "SPED":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v <= 0 {
			return "", fmt.Errorf("C9 SPED %v: %w", cmd.Args, device.ErrBadArgs)
		}
		c.speed = v
		return "ok", nil
	case "BIAS":
		v, err := device.OneFloat(cmd.Args)
		if err != nil {
			return "", err
		}
		c.elbowBias = v
		return "ok", nil
	case "GRIP":
		if len(cmd.Args) != 1 || (cmd.Args[0] != "open" && cmd.Args[0] != "close") {
			return "", fmt.Errorf("C9 GRIP %v: %w", cmd.Args, device.ErrBadArgs)
		}
		c.gripperOpen = cmd.Args[0] == "open"
		return "ok", nil
	case "HOME":
		if c.fault != "" {
			return "", c.fireFaultLocked()
		}
		var zero [NumAxes]float64
		c.startMoveLocked(zero)
		return "ok", nil
	case "OUTP":
		c.centrifugeOn = !c.centrifugeOn
		if c.centrifugeOn {
			return "1", nil
		}
		return "0", nil
	default:
		return "", fmt.Errorf("C9 %s: %w", cmd.Name, device.ErrUnknownCommand)
	}
}

func (c *C9) arm(args []string) (string, error) {
	if len(args) < 3 || len(args) > NumAxes {
		return "", fmt.Errorf("C9 ARM wants 3-%d coordinates, got %d: %w", NumAxes, len(args), device.ErrBadArgs)
	}
	if c.fault != "" {
		return "", c.fireFaultLocked()
	}
	target := c.axes
	for i, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return "", fmt.Errorf("C9 ARM arg %q: %w", a, device.ErrBadArgs)
		}
		target[i] = v
	}
	c.startMoveLocked(target)
	return "ok", nil
}

func (c *C9) moveAxis(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("C9 MOVE wants axis and position: %w", device.ErrBadArgs)
	}
	axis, err := strconv.Atoi(args[0])
	if err != nil || axis < 0 || axis >= NumAxes {
		return "", fmt.Errorf("C9 MOVE axis %q: %w", args[0], device.ErrBadArgs)
	}
	pos, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return "", fmt.Errorf("C9 MOVE position %q: %w", args[1], device.ErrBadArgs)
	}
	if c.fault != "" {
		return "", c.fireFaultLocked()
	}
	target := c.axes
	target[axis] = pos
	c.startMoveLocked(target)
	return "ok", nil
}

func (c *C9) axisCurrent(args []string) (string, error) {
	axis, err := oneAxis(args)
	if err != nil {
		return "", err
	}
	// Idle axes draw a small holding current; moving axes draw more, with
	// measurement noise on top.
	cur := 0.12
	if c.movingLocked() {
		cur = 0.85 + 0.001*c.speed
	}
	cur += c.env.Noise(0.02)
	_ = axis
	return strconv.FormatFloat(cur, 'f', 3, 64), nil
}

func (c *C9) axisPosition(args []string) (string, error) {
	axis, err := oneAxis(args)
	if err != nil {
		return "", err
	}
	return strconv.FormatFloat(c.axes[axis], 'f', 2, 64), nil
}

// startMoveLocked begins an asynchronous motion toward target.
func (c *C9) startMoveLocked(target [NumAxes]float64) {
	dist := 0.0
	for i := range target {
		dist = math.Max(dist, math.Abs(target[i]-c.axes[i]))
	}
	dur := time.Duration(dist / c.speed * float64(time.Second))
	c.target = target
	c.moveUntil = c.env.Clock.Now().Add(dur)
}

// fireFaultLocked consumes the armed fault and returns it as the error.
func (c *C9) fireFaultLocked() error {
	reason := c.fault
	return &device.FaultError{Device: device.C9, Reason: reason}
}

func oneAxis(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("want 1 axis argument: %w", device.ErrBadArgs)
	}
	axis, err := strconv.Atoi(args[0])
	if err != nil || axis < 0 || axis >= NumAxes {
		return 0, fmt.Errorf("axis %q: %w", args[0], device.ErrBadArgs)
	}
	return axis, nil
}
