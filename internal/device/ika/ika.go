// Package ika simulates the IKA C-MAG HS 7 magnetic stirrer and heater. The
// device speaks the NAMUR-style serial protocol visible in Fig. 5(a):
// IN_PV_x reads process values, IN_SP_x reads setpoints, OUT_SP_x writes
// setpoints, and START/STOP_x control the heater (channel 1) and the stirrer
// motor (channel 4).
//
// The simulator keeps first-order thermal and mechanical dynamics: the
// stirring speed relaxes toward its setpoint within seconds when the motor
// runs, and the hotplate temperature relaxes toward its setpoint over
// minutes while heating (and toward ambient while off), using the injected
// clock so virtual-time campaigns behave like real ones.
package ika

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"rad/internal/device"
)

const (
	baseLatency   = 3 * time.Millisecond
	jitterLatency = 4 * time.Millisecond

	ambientC     = 22.0
	speedTau     = 5.0   // seconds to close ~63% of a stirring-speed step
	heatTau      = 120.0 // seconds for the hotplate thermal time constant
	maxSpeedRPM  = 1500
	maxTempC     = 500
	deviceString = "C-MAG HS7"
)

// IKA is the simulated stirrer/heater. It is safe for concurrent use.
type IKA struct {
	env *device.Env

	mu        sync.Mutex
	connected bool
	motorOn   bool
	heaterOn  bool
	speedSet  float64 // rpm
	tempSet   float64 // °C
	speed     float64 // actual rpm
	plateTemp float64 // actual hotplate °C
	lastStep  time.Time
}

var _ device.Device = (*IKA)(nil)

// New returns an IKA simulator.
func New(env *device.Env) *IKA {
	return &IKA{env: env, plateTemp: ambientC, lastStep: env.Clock.Now()}
}

// Name implements device.Device.
func (k *IKA) Name() string { return device.IKA }

// Exec implements device.Device.
func (k *IKA) Exec(cmd device.Command) (string, error) {
	k.env.Spend(baseLatency, jitterLatency)
	k.mu.Lock()
	defer k.mu.Unlock()

	if cmd.Name == device.Init {
		k.connected = true
		k.lastStep = k.env.Clock.Now()
		return "ok", nil
	}
	if !k.connected {
		return "", fmt.Errorf("IKA %s: %w", cmd.Name, device.ErrNotConnected)
	}
	k.stepLocked()

	switch cmd.Name {
	case "IN_NAME":
		return deviceString, nil
	case "IN_PV_1":
		// External (medium) sensor lags the hotplate.
		return fmtVal(ambientC+0.8*(k.plateTemp-ambientC)+k.env.Noise(0.1), 1), nil
	case "IN_PV_2":
		return fmtVal(k.plateTemp+k.env.Noise(0.1), 1), nil
	case "IN_PV_4":
		return fmtVal(math.Max(0, k.speed+k.env.Noise(1.0)), 0), nil
	case "IN_SP_1":
		return fmtVal(k.tempSet, 1), nil
	case "IN_SP_4":
		return fmtVal(k.speedSet, 0), nil
	case "OUT_SP_1":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v < 0 || v > maxTempC {
			return "", fmt.Errorf("IKA OUT_SP_1 %v: %w", cmd.Args, device.ErrBadArgs)
		}
		k.tempSet = v
		return "ok", nil
	case "OUT_SP_4":
		v, err := device.OneFloat(cmd.Args)
		if err != nil || v < 0 || v > maxSpeedRPM {
			return "", fmt.Errorf("IKA OUT_SP_4 %v: %w", cmd.Args, device.ErrBadArgs)
		}
		k.speedSet = v
		return "ok", nil
	case "START_1":
		k.heaterOn = true
		return "ok", nil
	case "STOP_1":
		k.heaterOn = false
		return "ok", nil
	case "START_4":
		k.motorOn = true
		return "ok", nil
	case "STOP_4":
		k.motorOn = false
		return "ok", nil
	default:
		return "", fmt.Errorf("IKA %s: %w", cmd.Name, device.ErrUnknownCommand)
	}
}

// stepLocked advances the first-order dynamics to the current clock time.
func (k *IKA) stepLocked() {
	now := k.env.Clock.Now()
	dt := now.Sub(k.lastStep).Seconds()
	k.lastStep = now
	if dt <= 0 {
		return
	}
	speedTarget := 0.0
	if k.motorOn {
		speedTarget = k.speedSet
	}
	k.speed += (speedTarget - k.speed) * relax(dt, speedTau)

	tempTarget := ambientC
	if k.heaterOn {
		tempTarget = k.tempSet
	}
	k.plateTemp += (tempTarget - k.plateTemp) * relax(dt, heatTau)
}

// relax returns the first-order step fraction 1 - exp(-dt/tau).
func relax(dt, tau float64) float64 { return 1 - math.Exp(-dt/tau) }

func fmtVal(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
