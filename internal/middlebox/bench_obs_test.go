package middlebox

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/fault"
	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/simclock"
	"rad/internal/wire"
)

// BenchmarkExecObserved prices the observability layer on the fault-free
// hot path: "baseline" is the hardened exec path (deadline + retry
// eligibility + closed breaker, no metrics), "observed" adds the full
// Observe wiring — whose only per-exec cost is one
// latency-histogram observe (a map lookup for the command's histogram, a
// binary search over its buckets and two LOCK XADDs); every counter is a
// pull-based mirror. EXPERIMENTS.md records the runs.
func BenchmarkExecObserved(b *testing.B) {
	build := func(b *testing.B, observe bool) *Core {
		b.Helper()
		clock := simclock.NewVirtual(time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC))
		core := NewCore(clock, nil) // no sink: isolate the exec path
		core.Register(c9.New(device.NewEnv(clock, 1)))
		core.SetExecPolicy(ExecPolicy{
			Timeout: 20 * time.Second,
			Retries: 2,
			Breaker: fault.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Minute},
		})
		if observe {
			core.Observe(obs.NewRegistry())
		}
		if r := core.Handle(wire.Request{ID: 1, Op: wire.OpExec, Device: "C9", Name: device.Init}); r.Error != "" {
			b.Fatalf("init: %s", r.Error)
		}
		return core
	}
	req := wire.Request{ID: 2, Op: wire.OpExec, Device: "C9", Name: "MVNG"}

	b.Run("baseline", func(b *testing.B) {
		core := build(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		core := build(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
	// The tracing acceptance budget is on the two sub-benchmarks above:
	// with the span recorder threaded through the exec path, "baseline"
	// and "observed" must stay within 5% of their PR 5 numbers — i.e. the
	// nil-recorder hooks (one pointer check per span site, trace fields on
	// Request/Record) must be free. "traced" then prices the opt-in
	// recorder itself: one trace-context adopt (a single counter bump plus
	// two splitmix rounds, ~13ns), span construction (~21ns, dominated by
	// zeroing the inline attr array), one ring write under the recorder's
	// mutex (~29ns incl. the by-value copy at PR 10), and the histogram exemplar
	// store — ~75ns total on the harshest denominator (no sink, virtual
	// clock), under 7% of the realistic ~1.1µs exec path with a tracedb
	// sink (EXPERIMENTS.md records the decomposition).
	b.Run("traced", func(b *testing.B) {
		core := build(b, true)
		core.SetSpans(span.NewRecorder(span.Config{Seed: 1}), "")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
	// "traced-sampled" is the production relief valve: with 1-in-1024
	// sampling, non-kept traces skip the ring write entirely.
	b.Run("traced-sampled", func(b *testing.B) {
		core := build(b, true)
		core.SetSpans(span.NewRecorder(span.Config{Seed: 1, SampleEvery: 1024}), "")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Handle(req); r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	})
}
