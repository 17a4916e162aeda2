package fault

import (
	"math/rand/v2"
	"sync"
	"time"

	"rad/internal/device"
	"rad/internal/simclock"
	"rad/internal/store"
)

// decider is the shared deterministic decision source: one seeded PRNG per
// wrapper, with a fixed number of draws per operation so the decision
// stream depends only on the seed and the wrapper's own operation order —
// never on the profile's probabilities or on other wrappers.
type decider struct {
	mu  sync.Mutex
	rng *rand.Rand
	p   Profile
}

func newDecider(p Profile, seed uint64) *decider {
	return &decider{rng: rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909)), p: p}
}

// decision is one operation's fault plan.
type decision struct {
	latency time.Duration // extra latency to charge (0 = none)
	reset   bool
	hang    bool
	hangFor time.Duration
	drop    bool
	garble  bool
	sinkErr bool
	mangle  float64 // garble entropy, always drawn
}

// next draws the fixed per-operation roll vector and maps it onto the
// current profile. At most one of reset/hang/drop/garble fires per
// operation (checked in that severity order); a latency spike composes
// with any of them.
func (d *decider) next() decision {
	d.mu.Lock()
	defer d.mu.Unlock()
	rLat, rMag := d.rng.Float64(), d.rng.Float64()
	rFault, rMangle := d.rng.Float64(), d.rng.Float64()
	p := d.p
	var out decision
	out.mangle = rMangle
	if rLat < p.LatencyProb && p.LatencyMax > 0 {
		span := p.LatencyMax - p.LatencyMin
		if span < 0 {
			span = 0
		}
		out.latency = p.LatencyMin + time.Duration(rMag*float64(span))
	}
	// One cumulative roll selects among the exclusive fault classes, so a
	// single draw covers them all and the stream stays profile-independent.
	switch {
	case rFault < p.ResetProb:
		out.reset = true
	case rFault < p.ResetProb+p.HangProb:
		out.hang = true
		out.hangFor = p.HangFor
	case rFault < p.ResetProb+p.HangProb+p.DropProb:
		out.drop = true
	case rFault < p.ResetProb+p.HangProb+p.DropProb+p.GarbleProb:
		out.garble = true
	}
	out.sinkErr = rFault < p.SinkErrProb
	return out
}

// setProfile swaps the profile without disturbing the roll stream.
func (d *decider) setProfile(p Profile) {
	d.mu.Lock()
	d.p = p
	d.mu.Unlock()
}

// garbleString deterministically corrupts s using entropy r in [0,1).
func garbleString(s string, r float64) string {
	if s == "" {
		return "\x00?"
	}
	b := []byte(s)
	i := int(r*float64(len(b))) % len(b)
	b[i] ^= 0x5a
	if b[i] == '\n' || b[i] == '\r' {
		// Corrupt the payload, not the line framing.
		b[i] ^= 0x24
	}
	return string(b)
}

// FaultyDevice wraps a device.Device with the device-level fault classes:
// latency spikes, resets, hangs, dropped responses, garbled responses.
// A hang charges Profile.HangFor to the clock before reporting, so under a
// real clock it blocks like real silent hardware (and trips the exec
// deadline), while under a virtual clock it returns promptly having
// advanced simulated time — keeping chaos tests fast and deterministic.
type FaultyDevice struct {
	dev   device.Device
	clock simclock.Clock
	dec   *decider
	obs   *injObs // nil unless Observe was called
}

var _ device.Device = (*FaultyDevice)(nil)

// WrapDevice wraps d with the profile's device-level faults, drawing its
// decisions from a PRNG seeded with seed.
func WrapDevice(d device.Device, clock simclock.Clock, p Profile, seed uint64) *FaultyDevice {
	return &FaultyDevice{dev: d, clock: clock, dec: newDecider(p, seed)}
}

// Name implements device.Device.
func (f *FaultyDevice) Name() string { return f.dev.Name() }

// SetProfile swaps the fault profile (e.g. to heal a device mid-test so a
// half-open breaker probe can succeed). The decision stream position is
// preserved.
func (f *FaultyDevice) SetProfile(p Profile) { f.dec.setProfile(p) }

// Exec implements device.Device, injecting at most one exclusive fault per
// command plus an optional latency spike.
func (f *FaultyDevice) Exec(cmd device.Command) (string, error) {
	d := f.dec.next()
	o := f.obs
	if d.latency > 0 {
		if o != nil {
			o.latency.Inc()
		}
		f.clock.Sleep(d.latency)
	}
	switch {
	case d.reset:
		// The command never reaches the device.
		if o != nil {
			o.reset.Inc()
		}
		return "", &Fault{Kind: KindReset, Target: f.dev.Name()}
	case d.hang:
		// The device goes silent; the caller only learns after HangFor.
		if o != nil {
			o.hang.Inc()
		}
		f.clock.Sleep(d.hangFor)
		return "", &Fault{Kind: KindHang, Target: f.dev.Name()}
	}
	value, err := f.dev.Exec(cmd)
	switch {
	case d.drop:
		// The device executed (state may have changed) but the response
		// was lost — the reason only idempotent commands retry.
		if o != nil {
			o.drop.Inc()
		}
		return "", &Fault{Kind: KindDrop, Target: f.dev.Name()}
	case d.garble && err == nil:
		if o != nil {
			o.garble.Inc()
		}
		return "", &Fault{Kind: KindGarble, Target: f.dev.Name(), Detail: garbleString(value, d.mangle)}
	}
	return value, err
}

// FlakySink wraps a store.Sink with injected write errors, for exercising
// sink failover. An injected error refuses the record before it reaches
// the wrapped sink, so it is never committed. Commit-hook installation
// passes through to the wrapped sink, so a broker attached above a
// FlakySink still sees authoritative sequence numbers.
type FlakySink struct {
	sink store.Sink
	dec  *decider
	obs  *injObs // nil unless Observe was called
}

var _ store.Sink = (*FlakySink)(nil)

// WrapSink wraps sink with Profile.SinkErrProb write failures.
func WrapSink(sink store.Sink, p Profile, seed uint64) *FlakySink {
	return &FlakySink{sink: sink, dec: newDecider(p, seed)}
}

// SetProfile swaps the fault profile.
func (f *FlakySink) SetProfile(p Profile) { f.dec.setProfile(p) }

// Append implements store.Sink.
func (f *FlakySink) Append(r store.Record) error {
	if f.dec.next().sinkErr {
		if o := f.obs; o != nil {
			o.sinkErr.Inc()
		}
		return &Fault{Kind: KindSink, Target: "sink"}
	}
	return f.sink.Append(r)
}
