// Package fault is a deterministic, seedable fault-injection framework for
// the virtual lab: composable injectors that wrap a device.Device or a
// store.Sink and make them misbehave the way real CPS hardware does —
// latency spikes, dropped or garbled serial responses, device hangs,
// wire-connection resets, and sink write errors.
//
// Everything is driven by the injected simclock.Clock and a per-wrapper
// seeded PRNG, so a fault campaign is reproducible: the same seed and the
// same per-wrapper operation order produce the same fault schedule, in
// real time or virtual time. Each wrapper draws a fixed number of rolls
// per operation regardless of the profile's probabilities, so tuning one
// probability never shifts the decisions of the other fault classes.
//
// The package also provides the resilience primitives the hardened
// middlebox exec path is built from: the per-device circuit breaker
// (closed → open → half-open) and the jittered exponential backoff used
// between idempotent retries. IsInfra classifies an error as an
// infrastructure failure (injected fault, exec deadline, dead link) as
// opposed to a device-reported command error; only infrastructure
// failures feed the breaker and qualify for retry.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"rad/internal/serial"
)

// Profile configures the injectors: one probability (and, where relevant,
// a magnitude) per fault class. The zero value injects nothing.
type Profile struct {
	// LatencyProb is the chance of an extra latency spike in
	// [LatencyMin, LatencyMax] charged to the clock before the operation.
	LatencyProb float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration
	// DropProb is the chance the command executes but its response is lost
	// in transit (the dangerous one: state may have changed, so only
	// idempotent commands are safe to retry).
	DropProb float64
	// GarbleProb is the chance the response arrives corrupted.
	GarbleProb float64
	// HangProb is the chance the device goes silent for HangFor before the
	// caller sees an error — the fault that exec deadlines and circuit
	// breakers exist for.
	HangProb float64
	HangFor  time.Duration
	// ResetProb is the chance the wire connection resets before the command
	// reaches the device (the command does not execute).
	ResetProb float64
	// SinkErrProb is the chance a trace-sink write fails (FlakySink).
	SinkErrProb float64
}

// Active reports whether the profile injects any fault at all.
func (p Profile) Active() bool {
	return p.LatencyProb > 0 || p.DropProb > 0 || p.GarbleProb > 0 ||
		p.HangProb > 0 || p.ResetProb > 0 || p.SinkErrProb > 0
}

// None is the empty profile: every wrapper becomes a transparent proxy.
func None() Profile { return Profile{} }

// Flaky models a mildly unhealthy lab: occasional latency spikes, rare
// drops and garbles, a hang every few hundred commands.
func Flaky() Profile {
	return Profile{
		LatencyProb: 0.02, LatencyMin: 5 * time.Millisecond, LatencyMax: 50 * time.Millisecond,
		DropProb:   0.01,
		GarbleProb: 0.005,
		HangProb:   0.002, HangFor: 45 * time.Second,
		ResetProb:   0.005,
		SinkErrProb: 0.01,
	}
}

// Chaos models a lab falling apart: the profile the chaos soak runs under.
func Chaos() Profile {
	return Profile{
		LatencyProb: 0.10, LatencyMin: 10 * time.Millisecond, LatencyMax: 250 * time.Millisecond,
		DropProb:   0.05,
		GarbleProb: 0.03,
		HangProb:   0.02, HangFor: 45 * time.Second,
		ResetProb:   0.03,
		SinkErrProb: 0.10,
	}
}

// ParseProfile parses a profile spec of the form
//
//	NAME[,key=value,...]
//
// where NAME is none, flaky, or chaos, and the optional key=value pairs
// override individual fields: latency, latmin, latmax, drop, garble, hang,
// hangfor, reset, sink. Probabilities are floats in [0,1]; durations use
// Go syntax (e.g. hangfor=30s). An empty spec is "none".
func ParseProfile(spec string) (Profile, error) {
	parts := strings.Split(spec, ",")
	var p Profile
	switch strings.TrimSpace(parts[0]) {
	case "", "none":
		p = None()
	case "flaky":
		p = Flaky()
	case "chaos":
		p = Chaos()
	default:
		return Profile{}, fmt.Errorf("fault: unknown profile %q (want none, flaky, or chaos)", parts[0])
	}
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Profile{}, fmt.Errorf("fault: malformed profile override %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "latency":
			p.LatencyProb, err = parseProb(val)
		case "latmin":
			p.LatencyMin, err = time.ParseDuration(val)
		case "latmax":
			p.LatencyMax, err = time.ParseDuration(val)
		case "drop":
			p.DropProb, err = parseProb(val)
		case "garble":
			p.GarbleProb, err = parseProb(val)
		case "hang":
			p.HangProb, err = parseProb(val)
		case "hangfor":
			p.HangFor, err = time.ParseDuration(val)
		case "reset":
			p.ResetProb, err = parseProb(val)
		case "sink":
			p.SinkErrProb, err = parseProb(val)
		default:
			return Profile{}, fmt.Errorf("fault: unknown profile key %q", key)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("fault: profile key %s: %w", key, err)
		}
	}
	return p, nil
}

func parseProb(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", f)
	}
	return f, nil
}

// Kind identifies a fault class.
type Kind uint8

const (
	// KindDrop: the command executed but the response was lost.
	KindDrop Kind = iota
	// KindGarble: the response arrived corrupted.
	KindGarble
	// KindHang: the device went silent.
	KindHang
	// KindReset: the wire connection reset before delivery.
	KindReset
	// KindSink: a trace-sink write failed.
	KindSink
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "dropped response"
	case KindGarble:
		return "garbled response"
	case KindHang:
		return "device hang"
	case KindReset:
		return "connection reset"
	case KindSink:
		return "sink write error"
	default:
		return "unknown fault"
	}
}

// Fault is the error an injector reports when a fault fires. It is always
// classified as an infrastructure failure by IsInfra.
type Fault struct {
	Kind   Kind
	Target string // device name, line label, or sink description
	Detail string // e.g. the garbled payload
}

func (f *Fault) Error() string {
	msg := fmt.Sprintf("%s: injected fault: %s", f.Target, f.Kind)
	if f.Detail != "" {
		msg += " (" + f.Detail + ")"
	}
	return msg
}

// ErrDeadline is the error the hardened exec path reports when a command
// attempt exceeds its per-exec deadline. It lives here (not in middlebox)
// so injectors, the breaker, and IsInfra agree on the classification
// without an import cycle.
var ErrDeadline = errors.New("exec deadline exceeded")

// IsInfra reports whether err is an infrastructure failure — an injected
// fault, an exceeded exec deadline, or a dead link — rather than a device-reported command error (bad arguments,
// hardware fault, collision). Only infrastructure failures feed the
// circuit breaker and qualify for retry: a device that answers "ERR bad
// args" is a healthy device.
func IsInfra(err error) bool {
	if err == nil {
		return false
	}
	var f *Fault
	return errors.As(err, &f) ||
		errors.Is(err, ErrDeadline) ||
		errors.Is(err, serial.ErrClosed)
}

// Backoff returns the delay before retry attempt (0-based): an exponential
// base<<attempt capped at max, jittered uniformly in [d/2, 3d/2) so
// synchronized retry storms decorrelate. The jitter is drawn from rng, so
// a seeded caller gets a reproducible schedule. Non-positive base or max
// fall back to 50ms / 2s.
func Backoff(attempt int, base, max time.Duration, rng *rand.Rand) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rng.Int64N(int64(d)))
}
