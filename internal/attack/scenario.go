package attack

import (
	"fmt"

	"rad/internal/procedure"
	"rad/internal/store"
	"rad/internal/tracer"
)

// Scenario describes one attacked run for benchmarking. The victim is a P2
// run (Automated Solubility with N9 and UR3e).
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Attack configures the interceptor. A zero Kind runs the scenario
	// benign (the control).
	Attack Config
	// Seed drives both the victim's and the lab's randomness.
	Seed uint64
}

// Outcome is one executed scenario: the run's traced command records, the
// attacker's ground-truth events, and the victim's view of the run.
type Outcome struct {
	Scenario Scenario
	// Records are the run's trace records in stream order (including
	// attacker-injected commands, which a MITM blends into the victim's
	// labels).
	Records []store.Record
	// Events is the attacker's action log (empty for benign controls).
	Events []Event
	// VictimResult is what the victim's script observed.
	VictimResult procedure.Result
}

// Attacked reports whether the scenario actually carried an attack (some
// probabilistic attacks may not fire within a short run).
func (o Outcome) Attacked() bool { return len(o.Events) > 0 }

// Run executes the scenario's P2 run in a fresh virtual lab and returns its
// outcome.
func Run(sc Scenario) (Outcome, error) {
	var interceptor *Interceptor
	wrap := func(next tracer.Transport) tracer.Transport { return next }
	if sc.Attack.Kind != 0 {
		wrap = func(next tracer.Transport) tracer.Transport {
			cfg := sc.Attack
			if cfg.Seed == 0 {
				cfg.Seed = sc.Seed ^ 0xa77ac4
			}
			interceptor = New(next, cfg)
			return interceptor
		}
	}
	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{
		Seed: sc.Seed, WrapTransport: wrap,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("attack: build lab: %w", err)
	}
	defer vl.Close()

	run := "scenario-" + sc.Name
	opts := procedure.Options{Run: run, Seed: sc.Seed + 1}
	res := procedure.RunSolubilityN9UR(vl.Lab, opts)
	// Tampered commands can push devices into error states the script treats
	// as fatal; that is itself an observable consequence of the attack, so
	// the run is kept either way.
	out := Outcome{Scenario: sc, Records: vl.Sink.ByRun(run), VictimResult: res}
	if interceptor != nil {
		out.Events = interceptor.Events()
	}
	return out, nil
}

// StandardSuite returns one benign control plus one scenario per attack
// family against the P2 workload — the benchmark set `radbench -only
// attacks` evaluates detectors on.
func StandardSuite(seed uint64) []Scenario {
	out := []Scenario{{Name: "benign-control", Seed: seed}}
	for i, kind := range Kinds() {
		out = append(out, Scenario{
			Name:   kind.String(),
			Attack: Config{Kind: kind, StartAfter: 20, Seed: seed + uint64(i)*31},
			Seed:   seed + uint64(i)*17,
		})
	}
	return out
}
