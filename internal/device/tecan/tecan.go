// Package tecan simulates the Tecan Cavro XLP 6000 syringe pump. The pump
// speaks a single-letter serial protocol (Fig. 5a): Q polls status, A moves
// the plunger to an absolute position, P picks up a relative distance, V
// sets the plunger velocity, I switches the valve, Z homes, k/L configure
// dead volume and slope, and g/G record and execute a batch of commands.
//
// Plunger motions are asynchronous: a move command returns immediately and Q
// reports busy ("@") until the motion completes, which is why solubility
// traces show long runs of Q commands (the QQQQ n-grams of Fig. 5b).
package tecan

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"rad/internal/device"
)

const (
	baseLatency   = 2 * time.Millisecond
	jitterLatency = 2 * time.Millisecond

	// Plunger coordinate space and limits of the XLP 6000.
	maxPosition = 6000
	maxVelocity = 5800
	minVelocity = 5
	numValves   = 9
	maxDeadVol  = 31
	maxSlope    = 20

	// Status bytes: '`' idle with no error, '@' busy (per the Cavro OEM
	// protocol's status-byte convention).
	statusIdle = "`"
	statusBusy = "@"
)

// Tecan is the simulated pump. It is safe for concurrent use.
type Tecan struct {
	env *device.Env

	mu        sync.Mutex
	connected bool
	position  float64 // plunger increments, 0..6000
	target    float64
	velocity  float64 // increments/s
	valve     int
	deadVol   int
	slope     int
	busyUntil time.Time
	batching  bool
	batch     []device.Command
}

var _ device.Device = (*Tecan)(nil)

// New returns a Tecan simulator.
func New(env *device.Env) *Tecan {
	return &Tecan{env: env, velocity: 1400, valve: 1, slope: 14}
}

// Name implements device.Device.
func (p *Tecan) Name() string { return device.Tecan }

func (p *Tecan) busyLocked() bool { return p.env.Clock.Now().Before(p.busyUntil) }

func (p *Tecan) settleLocked() {
	if !p.busyLocked() {
		p.position = p.target
	}
}

// Exec implements device.Device.
func (p *Tecan) Exec(cmd device.Command) (string, error) {
	p.env.Spend(baseLatency, jitterLatency)
	p.mu.Lock()
	defer p.mu.Unlock()

	if cmd.Name == device.Init {
		p.connected = true
		p.target = p.position
		return statusIdle, nil
	}
	if !p.connected {
		return "", fmt.Errorf("Tecan %s: %w", cmd.Name, device.ErrNotConnected)
	}
	p.settleLocked()

	// While recording a batch, everything except Q, g and G is queued.
	if p.batching && cmd.Name != "Q" && cmd.Name != "g" && cmd.Name != "G" {
		p.batch = append(p.batch, cmd)
		return statusIdle, nil
	}

	switch cmd.Name {
	case "Q":
		if p.busyLocked() {
			return statusBusy, nil
		}
		return statusIdle, nil
	case "A":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v < 0 || v > maxPosition {
			return "", fmt.Errorf("Tecan A %v: %w", cmd.Args, device.ErrBadArgs)
		}
		p.startMoveLocked(v)
		return statusIdle, nil
	case "P":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v < 0 {
			return "", fmt.Errorf("Tecan P %v: %w", cmd.Args, device.ErrBadArgs)
		}
		tgt := p.position + v
		if tgt > maxPosition {
			return "", fmt.Errorf("Tecan P overruns plunger (%v + %v): %w", p.position, v, device.ErrBadArgs)
		}
		p.startMoveLocked(tgt)
		return statusIdle, nil
	case "V":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v < minVelocity || v > maxVelocity {
			return "", fmt.Errorf("Tecan V %v: %w", cmd.Args, device.ErrBadArgs)
		}
		p.velocity = v
		return statusIdle, nil
	case "I":
		n, err := oneInt(cmd.Args)
		if err != nil || n < 1 || n > numValves {
			return "", fmt.Errorf("Tecan I %v: %w", cmd.Args, device.ErrBadArgs)
		}
		p.valve = n
		return statusIdle, nil
	case "Z":
		p.startMoveLocked(0)
		return statusIdle, nil
	case "k":
		n, err := oneInt(cmd.Args)
		if err != nil || n < 0 || n > maxDeadVol {
			return "", fmt.Errorf("Tecan k %v: %w", cmd.Args, device.ErrBadArgs)
		}
		p.deadVol = n
		return statusIdle, nil
	case "L":
		n, err := oneInt(cmd.Args)
		if err != nil || n < 1 || n > maxSlope {
			return "", fmt.Errorf("Tecan L %v: %w", cmd.Args, device.ErrBadArgs)
		}
		p.slope = n
		return statusIdle, nil
	case "g":
		p.batching = true
		p.batch = p.batch[:0]
		return statusIdle, nil
	case "G":
		if !p.batching {
			return "", fmt.Errorf("Tecan G without g: %w", device.ErrBadArgs)
		}
		p.batching = false
		return p.runBatchLocked()
	default:
		return "", fmt.Errorf("Tecan %s: %w", cmd.Name, device.ErrUnknownCommand)
	}
}

// startMoveLocked begins an asynchronous plunger motion.
func (p *Tecan) startMoveLocked(target float64) {
	dist := target - p.position
	if dist < 0 {
		dist = -dist
	}
	dur := time.Duration(dist / p.velocity * float64(time.Second))
	p.target = target
	p.busyUntil = p.env.Clock.Now().Add(dur)
}

// runBatchLocked replays the queued batch synchronously: each queued motion
// completes (advancing the clock) before the next starts.
func (p *Tecan) runBatchLocked() (string, error) {
	cmds := p.batch
	p.batch = nil
	for _, cmd := range cmds {
		// Re-dispatch the queued command outside batching mode. Unlock is
		// unnecessary: we call the internal handlers directly.
		switch cmd.Name {
		case "A", "P", "Z":
			var tgt float64
			switch cmd.Name {
			case "A":
				v, err := device.OneFloat(cmd.Args)
				if err != nil || v < 0 || v > maxPosition {
					return "", fmt.Errorf("Tecan batch A %v: %w", cmd.Args, device.ErrBadArgs)
				}
				tgt = v
			case "P":
				v, err := device.OneFloat(cmd.Args)
				if err != nil || v < 0 || p.position+v > maxPosition {
					return "", fmt.Errorf("Tecan batch P %v: %w", cmd.Args, device.ErrBadArgs)
				}
				tgt = p.position + v
			case "Z":
				tgt = 0
			}
			p.startMoveLocked(tgt)
			// Batches execute synchronously: wait out the motion.
			p.env.Clock.Sleep(p.busyUntil.Sub(p.env.Clock.Now()))
			p.settleLocked()
		case "V":
			if v, err := device.OneFloat(cmd.Args); err == nil && v >= minVelocity && v <= maxVelocity {
				p.velocity = v
			}
		case "I":
			if n, err := oneInt(cmd.Args); err == nil && n >= 1 && n <= numValves {
				p.valve = n
			}
		case "k":
			if n, err := oneInt(cmd.Args); err == nil && n >= 0 && n <= maxDeadVol {
				p.deadVol = n
			}
		case "L":
			if n, err := oneInt(cmd.Args); err == nil && n >= 1 && n <= maxSlope {
				p.slope = n
			}
		}
	}
	return statusIdle, nil
}

func oneInt(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("want 1 argument, got %d: %w", len(args), device.ErrBadArgs)
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, fmt.Errorf("argument %q: %w", args[0], device.ErrBadArgs)
	}
	return n, nil
}
