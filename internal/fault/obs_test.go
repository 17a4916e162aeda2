package fault

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/obs"
	"rad/internal/simclock"
	"rad/internal/store"
)

// injectedByKind flattens a registry snapshot's rad_fault_injected_total
// children into "target/kind" keys.
func injectedByKind(reg *obs.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "rad_fault_injected_total" {
			out[c.Labels["target"]+"/"+c.Labels["kind"]] += c.Value
		}
	}
	return out
}

// TestObsFaultInjectedCounters: every injection branch bumps its
// {target,kind} counter, and an unobserved wrapper stays silent.
func TestObsFaultInjectedCounters(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	reg := obs.NewRegistry()

	fd := WrapDevice(&scriptDev{name: "C9"}, clock, Profile{ResetProb: 1}, 1)
	fd.Observe(reg)
	for i := 0; i < 4; i++ {
		fd.Exec(device.Command{Device: "C9", Name: "MVNG"})
	}

	sink := WrapSink(store.NewMemStore(), Profile{SinkErrProb: 1}, 2)
	sink.Observe(reg)
	for i := 0; i < 3; i++ {
		sink.Append(store.Record{Device: "C9", Name: "MVNG"})
	}

	got := injectedByKind(reg)
	if got["C9/reset"] != 4 {
		t.Errorf("C9/reset = %d, want 4", got["C9/reset"])
	}
	if got["sink/sink_error"] != 3 {
		t.Errorf("sink/sink_error = %d, want 3", got["sink/sink_error"])
	}

	// An unobserved wrapper must not register or count anything.
	quiet := WrapDevice(&scriptDev{name: "IKA"}, clock, Profile{ResetProb: 1}, 3)
	quiet.Exec(device.Command{Device: "IKA", Name: "IN_PV_4"})
	if _, ok := injectedByKind(reg)["IKA/reset"]; ok {
		t.Error("unobserved wrapper leaked metrics into the registry")
	}
}
