// Package experiments implements one harness per table and figure in the
// paper's evaluation: each function regenerates the corresponding result
// against the simulated substrate and returns it in a structured form that
// cmd/radbench renders in the paper's format and EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"strconv"
	"time"

	"rad/internal/analysis/stats"
	"rad/internal/deploy"
	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/middlebox"
	"rad/internal/simclock"
	"rad/internal/tracer"
)

// Fig4Config sizes the response-time experiment. The paper replays six
// joystick button-press sequences per mode.
type Fig4Config struct {
	// Sequences is the number of button-press sequences (paper: 6).
	Sequences int
	// CommandsPerSequence is the number of ARM commands per sequence.
	CommandsPerSequence int
	// Seed drives jitter.
	Seed uint64
}

// Fig4Mode holds one deployment mode's per-sequence response-time box plots.
type Fig4Mode struct {
	Mode string
	// Boxes has one entry per button-press sequence; values in
	// milliseconds, the paper's y-axis.
	Boxes []stats.Box
	// Mean is the mode's overall average response time in ms.
	Mean float64
}

// Fig4Result is the data behind Fig. 4's box plots.
type Fig4Result struct {
	Modes []Fig4Mode
}

// Fig4 deployment mode names.
const (
	ModeDirect = "DIRECT"
	ModeRemote = "REMOTE"
	ModeCloud  = "CLOUD"
)

// Fig4ResponseTime measures the response time of the N9's ARM command under
// the three deployments of Fig. 4: DIRECT (device local, trace upload off
// the latency path), REMOTE (command round-trips through the middlebox over
// real TCP with a LAN profile), and CLOUD (the same path with the Azure
// WAN profile of footnote 1). Each mode serves radmiddlebox's deployment
// (internal/deploy), which logs every command to an in-memory store. All
// three run over the loopback interface in real time; the emulated network
// profiles supply the LAN/WAN character.
func Fig4ResponseTime(cfg Fig4Config) (Fig4Result, error) {
	if cfg.Sequences <= 0 {
		cfg.Sequences = 6
	}
	if cfg.CommandsPerSequence <= 0 {
		cfg.CommandsPerSequence = 30
	}
	var out Fig4Result
	for _, mode := range []string{ModeDirect, ModeRemote, ModeCloud} {
		m, err := fig4Mode(mode, cfg)
		if err != nil {
			return Fig4Result{}, err
		}
		out.Modes = append(out.Modes, m)
	}
	return out, nil
}

func fig4Mode(mode string, cfg Fig4Config) (Fig4Mode, error) {
	profile := middlebox.LANProfile()
	if mode == ModeCloud {
		profile = middlebox.CloudProfile()
	}
	// The served C9 is seeded cfg.Seed+1, as deploy seeds a lab's devices.
	d, err := deploy.Start(deploy.Config{Listen: "127.0.0.1:0", Network: profile, Seed: cfg.Seed})
	if err != nil {
		return Fig4Mode{}, err
	}
	defer d.Close()

	clock := simclock.Real{}
	transport, err := tracer.DialTCP(d.Addrs.Exec)
	if err != nil {
		return Fig4Mode{}, err
	}
	sessMode := tracer.ModeRemote
	if mode == ModeDirect {
		sessMode = tracer.ModeDirect
	}
	sess := tracer.NewSession(transport, clock, tracer.Config{DefaultMode: sessMode})
	defer sess.Close()

	var local *c9.C9
	if mode == ModeDirect {
		// DIRECT: the device stays wired to the lab computer.
		local = c9.New(device.NewEnv(clock, cfg.Seed+3))
		sess.AttachLocal(local)
	}
	dev, err := sess.Virtual(device.C9)
	if err != nil {
		return Fig4Mode{}, err
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		return Fig4Mode{}, err
	}

	result := Fig4Mode{Mode: mode}
	var all []float64
	for seq := 0; seq < cfg.Sequences; seq++ {
		lat := make([]float64, 0, cfg.CommandsPerSequence)
		for k := 0; k < cfg.CommandsPerSequence; k++ {
			x := strconv.Itoa((seq*7 + k) % 200)
			start := time.Now()
			if _, err := dev.Exec(device.Command{Name: "ARM", Args: []string{x, "0", "0"}}); err != nil {
				return Fig4Mode{}, fmt.Errorf("experiments: fig4 ARM: %w", err)
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			lat = append(lat, ms)
		}
		result.Boxes = append(result.Boxes, stats.BoxStats(lat))
		all = append(all, lat...)
	}
	result.Mean = stats.Mean(all)
	return result, nil
}
