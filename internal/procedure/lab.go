// Package procedure implements the Hein Lab workloads whose traces make up
// RAD (§IV): the four supervised procedure types — P1 Automated Solubility
// with N9, P2 Automated Solubility with N9 and UR3e, P3 Crystal Solubility,
// P4 Joystick Movements — and the filler prototyping sessions that account
// for the dataset's "unknown procedure" bulk. The controlled power
// experiments P5 (velocity sweep) and P6 (payload sweep) drive the arm
// directly in internal/experiments (Fig. 7c, 7d).
//
// Procedures execute against virtualized devices from a tracer.Session, so
// the same scripts run over a real TCP middlebox (Fig. 4 latency runs) or an
// in-process middlebox under a virtual clock (dataset generation).
package procedure

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/device/ika"
	"rad/internal/device/quantos"
	"rad/internal/device/tecan"
	"rad/internal/device/ur3e"
	"rad/internal/middlebox"
	"rad/internal/power"
	"rad/internal/serial"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/tracer"
)

// Procedure type labels as used in the dataset.
const (
	P1       = "P1" // Automated Solubility with N9
	P2       = "P2" // Automated Solubility with N9 and UR3e
	P3       = "P3" // Crystal Solubility
	Joystick = "P4" // Joystick Movements
)

// Lab bundles everything a procedure script needs: the virtualized devices
// it sends commands through, the raw simulators for physical context (fault
// injection, payload mass), and the clock/randomness of the simulation.
type Lab struct {
	// Virtualized devices (the RATracer interception layer).
	C9      device.Device
	UR3e    device.Device
	IKA     device.Device
	Tecan   device.Device
	Quantos device.Device

	// Raw simulators, for physical context that is not a command.
	Raw Devices

	Clock   simclock.Clock
	RNG     *rand.Rand
	Session *tracer.Session
}

// Faultable returns the raw device's fault-injection interface, if the named
// device supports it.
func (l *Lab) Faultable(name string) (device.Faultable, bool) {
	switch name {
	case device.C9:
		return l.Raw.C9, l.Raw.C9 != nil
	case device.UR3e:
		return l.Raw.UR3e, l.Raw.UR3e != nil
	case device.Quantos:
		return l.Raw.Quantos, l.Raw.Quantos != nil
	default:
		return nil, false
	}
}

// Device returns the virtualized device by dataset name.
func (l *Lab) Device(name string) (device.Device, bool) {
	switch name {
	case device.C9:
		return l.C9, l.C9 != nil
	case device.UR3e:
		return l.UR3e, l.UR3e != nil
	case device.IKA:
		return l.IKA, l.IKA != nil
	case device.Tecan:
		return l.Tecan, l.Tecan != nil
	case device.Quantos:
		return l.Quantos, l.Quantos != nil
	default:
		return nil, false
	}
}

// NewLab builds a Lab over sess, each of its five devices virtualized by
// the session. Its raw simulators are left unset: a lab computer driving
// a remote middlebox has none.
func NewLab(sess *tracer.Session, clock simclock.Clock, rng *rand.Rand) (*Lab, error) {
	lab := &Lab{Clock: clock, RNG: rng, Session: sess}
	virtual := []*device.Device{&lab.C9, &lab.UR3e, &lab.IKA, &lab.Tecan, &lab.Quantos}
	for i, name := range []string{device.C9, device.UR3e, device.IKA, device.Tecan, device.Quantos} {
		var err error
		if *virtual[i], err = sess.Virtual(name); err != nil {
			return nil, fmt.Errorf("procedure: virtualize %s: %w", name, err)
		}
	}
	return lab, nil
}

// Devices is one lab's five simulators.
type Devices struct {
	C9      *c9.C9
	UR3e    *ur3e.UR3e
	IKA     *ika.IKA
	Tecan   *tecan.Tecan
	Quantos *quantos.Quantos
}

// NewDevices builds a lab's five simulators on clock, seeded seed+1…+5 in
// the order All returns them. monitor, when set, records the UR3e's power
// draw.
func NewDevices(clock simclock.Clock, seed uint64, monitor *power.Monitor) Devices {
	return Devices{
		C9:      c9.New(device.NewEnv(clock, seed+1)),
		UR3e:    ur3e.New(device.NewEnv(clock, seed+2), monitor),
		IKA:     ika.New(device.NewEnv(clock, seed+3)),
		Tecan:   tecan.New(device.NewEnv(clock, seed+4)),
		Quantos: quantos.New(device.NewEnv(clock, seed+5)),
	}
}

// All returns the devices in seed order: C9, UR3e, IKA, Tecan, Quantos.
func (d Devices) All() []device.Device {
	return []device.Device{d.C9, d.UR3e, d.IKA, d.Tecan, d.Quantos}
}

// VirtualLabConfig configures NewVirtualLab.
type VirtualLabConfig struct {
	// Start is the virtual campaign start instant.
	Start time.Time
	// Seed drives every random stream in the lab.
	Seed uint64
	// Network is the emulated lab network between tracer and middlebox.
	Network middlebox.NetworkProfile
	// WithPower attaches a power monitor to the UR3e, and the lab keeps
	// what it records (VirtualLab.Power).
	WithPower bool
	// WrapTransport, when set, wraps the lab-computer → middlebox transport
	// before the tracing session is built — the hook a man-in-the-middle
	// attack interceptor (internal/attack) or a measurement shim uses.
	WrapTransport func(tracer.Transport) tracer.Transport
	// SerialDevices routes the serially attached instruments (C9, IKA,
	// Tecan, Quantos) through their emulated serial stacks (Fig. 2's
	// physical layer): the middlebox holds a serial driver client and the
	// device simulator runs behind a firmware adapter on the far end of a
	// baud-timed link. The UR3e keeps its direct (TCP/RTDE-style)
	// attachment, as in the real lab.
	SerialDevices bool
}

// VirtualLab is a complete in-process deployment: five simulated devices
// registered on a middlebox core, a virtual clock, and a REMOTE-mode tracing
// session — the configuration the Hein Lab converged on (§III).
type VirtualLab struct {
	Lab   *Lab
	Core  *middlebox.Core
	Sink  *store.MemStore
	Clock *simclock.Virtual

	// power is the UR3e's power capture (WithPower only), collected from
	// the monitor's sample hook.
	power []power.Sample

	// serial-stack lifecycle (SerialDevices only).
	ports []*serial.Port
	fw    sync.WaitGroup
}

// NewVirtualLab assembles a virtual-time lab. Callers own Close on the
// session (via VirtualLab.Close).
func NewVirtualLab(cfg VirtualLabConfig) (*VirtualLab, error) {
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2021, 9, 1, 9, 0, 0, 0, time.UTC)
	}
	clock := simclock.NewVirtual(cfg.Start)
	sink := store.NewMemStore()
	core := middlebox.NewCore(clock, sink)

	vlab := &VirtualLab{Core: core, Sink: sink, Clock: clock}
	var monitor *power.Monitor
	if cfg.WithPower {
		monitor = power.NewMonitor(power.DefaultModel(), clock, cfg.Seed^0x5bf0)
		monitor.SetOnSample(func(s power.Sample) { vlab.power = append(vlab.power, s) })
	}

	raw := NewDevices(clock, cfg.Seed, monitor)
	// The UR3e attaches directly (its real protocol is TCP, not serial).
	core.Register(raw.UR3e)
	serialSide := []device.Device{raw.C9, raw.IKA, raw.Tecan, raw.Quantos}
	if cfg.SerialDevices {
		for _, d := range serialSide {
			labEnd, devEnd := serial.Pipe(clock, clock, serial.DefaultBaud)
			fw := serial.NewFirmware(d, devEnd)
			vlab.ports = append(vlab.ports, labEnd, devEnd)
			vlab.fw.Add(1)
			go func() {
				defer vlab.fw.Done()
				fw.Serve()
			}()
			core.Register(serial.NewClient(d.Name(), labEnd))
		}
	} else {
		for _, d := range serialSide {
			core.Register(d)
		}
	}

	var transport tracer.Transport = tracer.NewLocalTransport(core, clock, cfg.Network, cfg.Seed+6)
	if cfg.WrapTransport != nil {
		transport = cfg.WrapTransport(transport)
	}
	sess := tracer.NewSession(transport, clock, tracer.Config{DefaultMode: tracer.ModeRemote})

	lab, err := NewLab(sess, clock, rand.New(rand.NewPCG(cfg.Seed+7, cfg.Seed^0x2545f4914f6cdd1d)))
	if err != nil {
		return nil, err
	}
	lab.Raw = raw
	vlab.Lab = lab
	return vlab, nil
}

// Power returns every sample the UR3e's power monitor has recorded, in
// order; it is nil without WithPower. The monitor's hook appends to it on
// the goroutine driving the arm, so read it between commands. The slice
// is the lab's own: callers must not modify it.
func (v *VirtualLab) Power() []power.Sample { return v.power }

// Close shuts the tracing session down, tears any serial links, and waits
// for their firmware loops to exit.
func (v *VirtualLab) Close() error {
	err := v.Lab.Session.Close()
	for _, p := range v.ports {
		_ = p.Close()
	}
	v.fw.Wait()
	return err
}
