// Package ur3e simulates the Universal Robots UR3e six-axis arm: the six
// command types traced in RAD (move_joints, move_to_location, open_gripper,
// close_gripper, move_circular, __init__) and the real-time power telemetry
// that the paper's §VI analyses use.
//
// Unlike the C9's asynchronous protocol, UR3e moves are synchronous — the
// Python urx calls block until the motion completes — so Exec advances the
// simulation clock by the motion's duration while the attached power.Monitor
// records one 122-property sample every 40 ms.
package ur3e

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/power"
	"rad/internal/robot"
)

const (
	baseLatency   = 1 * time.Millisecond
	jitterLatency = 2 * time.Millisecond

	// MaxSafeVelocityMMS is the tool-speed safety limit: commanding a move
	// faster than this trips a protective stop, as a real UR arm's safety
	// system would. The arm stays stopped until re-initialized.
	MaxSafeVelocityMMS = 600
)

// ErrProtectiveStop is returned for motion commands while the arm is in a
// protective stop, and (wrapped) for the command that tripped it.
var ErrProtectiveStop = errors.New("UR3e: protective stop")

// UR3e is the simulated arm. It is safe for concurrent use.
type UR3e struct {
	env     *device.Env
	monitor *power.Monitor

	mu          sync.Mutex
	connected   bool
	pose        robot.Config
	gripperOpen bool
	// nextPayload is the mass (kg) of whatever object sits under the
	// gripper: set by the procedure as physical context, it becomes the
	// carried payload when the gripper closes. Weights are not command
	// arguments (§VI) — they are an artifact of the object lifted.
	nextPayload float64
	fault       string
	// protectiveStop latches when a command exceeds the safety limits;
	// only __init__ clears it.
	protectiveStop bool
}

var (
	_ device.Device    = (*UR3e)(nil)
	_ device.Faultable = (*UR3e)(nil)
)

// New returns a UR3e simulator. The monitor may be nil when power telemetry
// is not being collected (the paper collects power data only from the UR3e,
// and only when the monitoring module is enabled).
func New(env *device.Env, monitor *power.Monitor) *UR3e {
	home, _ := robot.Location("home")
	return &UR3e{env: env, monitor: monitor, pose: home, gripperOpen: true}
}

// Name implements device.Device.
func (u *UR3e) Name() string { return device.UR3e }

// Pose returns the arm's current joint configuration.
func (u *UR3e) Pose() robot.Config {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.pose
}

// SetNextPayload records the mass (kg) of the object the gripper would pick
// up on its next close — procedure-level physical context, not a command.
func (u *UR3e) SetNextPayload(kg float64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if kg < 0 {
		kg = 0
	}
	u.nextPayload = kg
}

// InjectFault arms a hardware fault on the next motion command.
func (u *UR3e) InjectFault(reason string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.fault = reason
}

// Exec implements device.Device.
func (u *UR3e) Exec(cmd device.Command) (string, error) {
	u.env.Spend(baseLatency, jitterLatency)
	u.mu.Lock()
	defer u.mu.Unlock()

	if cmd.Name == device.Init {
		u.connected = true
		u.protectiveStop = false
		return "ok", nil
	}
	if !u.connected {
		return "", fmt.Errorf("UR3e %s: %w", cmd.Name, device.ErrNotConnected)
	}
	if u.protectiveStop {
		return "", fmt.Errorf("%w: re-initialize to resume", ErrProtectiveStop)
	}

	switch cmd.Name {
	case "move_joints":
		target, vel, err := parseJointArgs(cmd.Args)
		if err != nil {
			return "", err
		}
		return u.moveLocked(target, vel, 1.0)
	case "move_to_location":
		target, vel, err := parseLocationArgs(cmd.Args)
		if err != nil {
			return "", err
		}
		return u.moveLocked(target, vel, 1.0)
	case "move_circular":
		// A circular (process) move through an arc to the named location:
		// same endpoints, longer path, executed at reduced effective speed.
		target, vel, err := parseLocationArgs(cmd.Args)
		if err != nil {
			return "", err
		}
		return u.moveLocked(target, vel, 0.7)
	case "open_gripper":
		u.gripperOpen = true
		if u.monitor != nil {
			u.monitor.SetPayload(0)
		}
		return "ok", nil
	case "close_gripper":
		u.gripperOpen = false
		if u.monitor != nil {
			u.monitor.SetPayload(u.nextPayload)
		}
		return "ok", nil
	default:
		return "", fmt.Errorf("UR3e %s: %w", cmd.Name, device.ErrUnknownCommand)
	}
}

// moveLocked plans and executes a synchronous move. velScale < 1 slows the
// motion (used for circular arcs).
func (u *UR3e) moveLocked(target robot.Config, velMMS, velScale float64) (string, error) {
	if u.fault != "" {
		reason := u.fault
		return "", &device.FaultError{Device: device.UR3e, Reason: reason}
	}
	if velMMS > MaxSafeVelocityMMS {
		// The safety system refuses the motion and latches a protective
		// stop — the physically observable consequence of a speed attack.
		u.protectiveStop = true
		return "", fmt.Errorf("%w: commanded %.0f mm/s exceeds the %d mm/s safety limit",
			ErrProtectiveStop, velMMS, MaxSafeVelocityMMS)
	}
	mv, err := robot.NewMove(u.pose, target, robot.LinearToAngular(velMMS)*velScale, robot.DefaultAccel)
	if err != nil {
		return "", fmt.Errorf("UR3e move: %w", err)
	}
	if u.monitor != nil {
		u.monitor.RecordMove(mv)
	} else {
		u.env.Clock.Sleep(time.Duration(mv.Duration() * float64(time.Second)))
	}
	u.pose = target
	return "ok", nil
}

// parseJointArgs parses move_joints arguments: six joint angles followed by
// an optional linear velocity in mm/s.
func parseJointArgs(args []string) (robot.Config, float64, error) {
	var cfg robot.Config
	if len(args) != robot.NumJoints && len(args) != robot.NumJoints+1 {
		return cfg, 0, fmt.Errorf("UR3e move_joints wants %d angles [+velocity], got %d: %w",
			robot.NumJoints, len(args), device.ErrBadArgs)
	}
	for i := 0; i < robot.NumJoints; i++ {
		v, err := strconv.ParseFloat(args[i], 64)
		if err != nil {
			return cfg, 0, fmt.Errorf("UR3e joint angle %q: %w", args[i], device.ErrBadArgs)
		}
		cfg[i] = v
	}
	vel := robot.DefaultVelocityMMS
	if len(args) == robot.NumJoints+1 {
		v, err := strconv.ParseFloat(args[robot.NumJoints], 64)
		if err != nil || v <= 0 {
			return cfg, 0, fmt.Errorf("UR3e velocity %q: %w", args[robot.NumJoints], device.ErrBadArgs)
		}
		vel = v
	}
	return cfg, vel, nil
}

// parseLocationArgs parses move_to_location/move_circular arguments: a named
// waypoint followed by an optional linear velocity in mm/s.
func parseLocationArgs(args []string) (robot.Config, float64, error) {
	var cfg robot.Config
	if len(args) != 1 && len(args) != 2 {
		return cfg, 0, fmt.Errorf("UR3e wants location [+velocity], got %d args: %w", len(args), device.ErrBadArgs)
	}
	cfg, ok := robot.Location(args[0])
	if !ok {
		return cfg, 0, fmt.Errorf("UR3e unknown location %q: %w", args[0], device.ErrBadArgs)
	}
	vel := robot.DefaultVelocityMMS
	if len(args) == 2 {
		v, err := strconv.ParseFloat(args[1], 64)
		if err != nil || v <= 0 {
			return cfg, 0, fmt.Errorf("UR3e velocity %q: %w", args[1], device.ErrBadArgs)
		}
		vel = v
	}
	return cfg, vel, nil
}
