// Package quantos simulates the Mettler Toledo Quantos automated dosing
// balance together with the Arduino-controlled stepper motor that the Hein
// Lab added for z-axis control (the paper folds the stepper into the Quantos
// device, §III).
//
// The commands mirror Fig. 5(a): front_door opens/closes the draft shield,
// start_dosing doses solid toward target_mass, zero tares the balance, and
// home_z_stage/move_z_axis drive the Arduino stepper. The front door is the
// component involved in two of RAD's three supervised anomalies (the door
// crashed into the robot in runs 16 and 17), so it is the fault-injection
// point here.
package quantos

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"rad/internal/device"
)

const (
	baseLatency   = 4 * time.Millisecond
	jitterLatency = 5 * time.Millisecond

	// doseRateMgPerSec is the simulated solid dosing rate.
	doseRateMgPerSec = 2.5
	// zTravelPerSec is the stepper's travel speed in steps/s.
	zTravelPerSec = 400.0
	maxZ          = 2000.0
)

// Quantos is the simulated dosing balance. It is safe for concurrent use.
type Quantos struct {
	env *device.Env

	mu         sync.Mutex
	connected  bool
	doorOpen   bool
	zPos       float64
	zTarget    float64
	zHomeDir   int // +1 or -1
	pinLocked  bool
	targetMass float64 // mg
	dosedMass  float64 // mg currently on the balance
	tareOffset float64 // mg subtracted by zero
	busyUntil  time.Time
	fault      string
}

var (
	_ device.Device    = (*Quantos)(nil)
	_ device.Faultable = (*Quantos)(nil)
)

// New returns a Quantos simulator.
func New(env *device.Env) *Quantos {
	return &Quantos{env: env, zHomeDir: 1}
}

// Name implements device.Device.
func (q *Quantos) Name() string { return device.Quantos }

// InjectFault arms a hardware fault on the next door or dosing command.
func (q *Quantos) InjectFault(reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.fault = reason
}

// DoorOpen reports the front door state.
func (q *Quantos) DoorOpen() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.doorOpen
}

// Exec implements device.Device.
func (q *Quantos) Exec(cmd device.Command) (string, error) {
	q.env.Spend(baseLatency, jitterLatency)
	q.mu.Lock()
	defer q.mu.Unlock()

	if cmd.Name == device.Init {
		q.connected = true
		return "ok", nil
	}
	if !q.connected {
		return "", fmt.Errorf("Quantos %s: %w", cmd.Name, device.ErrNotConnected)
	}
	if q.env.Clock.Now().Before(q.busyUntil) {
		// The Quantos serial interface blocks while an operation is in
		// progress; model that by waiting it out.
		q.env.Clock.Sleep(q.busyUntil.Sub(q.env.Clock.Now()))
	}
	q.zPos = q.zTarget

	switch cmd.Name {
	case "front_door":
		if len(cmd.Args) != 1 || (cmd.Args[0] != "open" && cmd.Args[0] != "close") {
			return "", fmt.Errorf("Quantos front_door %v: %w", cmd.Args, device.ErrBadArgs)
		}
		if q.fault != "" {
			return "", &device.FaultError{Device: device.Quantos, Reason: q.fault}
		}
		q.doorOpen = cmd.Args[0] == "open"
		q.busyUntil = q.env.Clock.Now().Add(1500 * time.Millisecond)
		return "ok", nil
	case "home_z_stage":
		q.zTarget = 0
		q.busyUntil = q.env.Clock.Now().Add(time.Duration(q.zPos / zTravelPerSec * float64(time.Second)))
		return "ok", nil
	case "move_z_axis":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v < 0 || v > maxZ {
			return "", fmt.Errorf("Quantos move_z_axis %v: %w", cmd.Args, device.ErrBadArgs)
		}
		dist := v - q.zPos
		if dist < 0 {
			dist = -dist
		}
		q.zTarget = v
		q.busyUntil = q.env.Clock.Now().Add(time.Duration(dist / zTravelPerSec * float64(time.Second)))
		return "ok", nil
	case "set_home_direction":
		if len(cmd.Args) != 1 || (cmd.Args[0] != "1" && cmd.Args[0] != "-1") {
			return "", fmt.Errorf("Quantos set_home_direction %v: %w", cmd.Args, device.ErrBadArgs)
		}
		q.zHomeDir, _ = strconv.Atoi(cmd.Args[0])
		return "ok", nil
	case "zero":
		q.tareOffset = q.dosedMass
		return "0.000", nil
	case "target_mass":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v <= 0 {
			return "", fmt.Errorf("Quantos target_mass %v: %w", cmd.Args, device.ErrBadArgs)
		}
		q.targetMass = v
		return "ok", nil
	case "start_dosing":
		return q.doseLocked()
	case "lock_dosing_pin_position":
		q.pinLocked = true
		return "ok", nil
	case "unlock_dosing_pin_position":
		q.pinLocked = false
		return "ok", nil
	default:
		return "", fmt.Errorf("Quantos %s: %w", cmd.Name, device.ErrUnknownCommand)
	}
}

// doseLocked runs a dosing cycle: doses toward the target mass at the
// configured rate, returning the weighed amount.
func (q *Quantos) doseLocked() (string, error) {
	if q.fault != "" {
		return "", &device.FaultError{Device: device.Quantos, Reason: q.fault}
	}
	if q.targetMass <= 0 {
		return "", fmt.Errorf("Quantos start_dosing before target_mass: %w", device.ErrBadArgs)
	}
	if q.doorOpen {
		return "", fmt.Errorf("Quantos start_dosing with front door open: %w", device.ErrBadArgs)
	}
	if !q.pinLocked {
		return "", fmt.Errorf("Quantos start_dosing with dosing pin unlocked: %w", device.ErrBadArgs)
	}
	// Dosing overshoots or undershoots by a small percentage, as real
	// powder dosing does.
	dosed := q.targetMass * (1 + q.env.Noise(0.02))
	if dosed < 0 {
		dosed = 0
	}
	q.dosedMass += dosed
	q.env.Clock.Sleep(time.Duration(dosed / doseRateMgPerSec * float64(time.Second)))
	reading := q.dosedMass - q.tareOffset
	return strconv.FormatFloat(reading, 'f', 3, 64), nil
}
