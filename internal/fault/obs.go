package fault

import "rad/internal/obs"

// injObs holds one injector's prebuilt fault counters
// (rad_fault_injected_total{target,kind}), one per fault class the
// injector can fire, so the injection branches pay a nil check and one
// counter increment — nothing is registered at fire time.
type injObs struct {
	latency *obs.Counter
	reset   *obs.Counter
	hang    *obs.Counter
	drop    *obs.Counter
	garble  *obs.Counter
	sinkErr *obs.Counter
}

const injectedTotal = "rad_fault_injected_total"

func injCounter(reg *obs.Registry, target, kind string) *obs.Counter {
	reg.SetHelp(injectedTotal, "Faults injected, by target and fault class.")
	return reg.Counter(injectedTotal, "target", target, "kind", kind)
}

// Observe registers the device wrapper's injected-fault counters into reg.
// Call before serving traffic.
func (f *FaultyDevice) Observe(reg *obs.Registry) {
	target := f.dev.Name()
	f.obs = &injObs{
		latency: injCounter(reg, target, "latency"),
		reset:   injCounter(reg, target, "reset"),
		hang:    injCounter(reg, target, "hang"),
		drop:    injCounter(reg, target, "drop"),
		garble:  injCounter(reg, target, "garble"),
	}
}

// Observe registers the sink wrapper's injected-fault counter into reg.
// Call before serving traffic.
func (f *FlakySink) Observe(reg *obs.Registry) {
	f.obs = &injObs{sinkErr: injCounter(reg, "sink", "sink_error")}
}
