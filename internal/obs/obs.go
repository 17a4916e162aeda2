// Package obs is the repository's self-observability layer: a
// dependency-free metrics kit — counters, gauges, and fixed-bucket latency
// histograms — plus a registry that renders both the Prometheus text
// exposition format and a structured JSON snapshot.
//
// The package exists because RATracer's whole value proposition is
// visibility into an opaque automation stack, and a tracing middlebox whose
// own latency distributions, breaker flips, and broker drops are invisible
// is not holding itself to the standard it applies to the devices it
// traces. Every layer of the reproduction (middlebox exec, tracedb, the
// stream broker, the parallel pool, the fault injectors) registers its
// metrics here; radmiddlebox -obs-addr serves them live and radwatch -obs
// pretty-prints them.
//
// Design rules:
//
//   - The observed hot paths are sacred. Counter.Add and Histogram.Observe
//     are lock-free: one atomic add per word they touch, nothing else. The
//     middlebox exec path's overhead budget (≤5% over the PR 4 hardened
//     baseline, BenchmarkExecObserved) is the constraint the layout serves.
//   - Reads never see a metric go backwards, but a render racing concurrent
//     observes may split one observation across two renders (each atomic is
//     individually exact; cross-atomic consistency is not promised —
//     standard monitoring semantics).
//   - No time source. Histograms observe time.Duration values the caller
//     measured with its own injected clock, so virtual-clock campaigns
//     produce bit-identical histograms run after run while real-clock
//     deployments measure wall time. The package itself never reads a
//     clock.
//   - No dependencies. Stdlib only, and nothing from the rest of the
//     repository, so every internal package may register metrics without
//     import cycles.
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter: one atomic word. The zero
// value is ready to use; Registry.Counter hands out registered ones.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Lock-free; safe for any number of
// concurrent callers.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefaultLatencyBuckets spans 1µs to 60s exponentially — wide enough that
// both a real-clock exec (hundreds of ns to ms) and a virtual-clock device
// operation (ms to minutes of simulated time) land in resolved buckets.
var DefaultLatencyBuckets = []time.Duration{
	1 * time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
	10 * time.Second, 30 * time.Second, 60 * time.Second,
}

// Histogram is a fixed-bucket latency histogram with lock-free observes.
// Bucket bounds are set at construction and never change; the total count
// is derived from the buckets at read time, so Observe pays exactly two
// atomic adds.
type Histogram struct {
	bounds []int64         // bucket upper bounds in nanoseconds, ascending
	counts []atomic.Uint64 // len(bounds)+1; the final entry is the overflow (+Inf) bucket
	sum    atomic.Int64    // nanoseconds
	// ex holds one exemplar trace id per bucket (len(bounds)+1): the trace
	// id of the most recent traced observation that landed there, linking a
	// bucket back to a tree on /debug/spans. Last-writer-wins per bucket —
	// an exemplar is a sample, not an aggregate.
	ex []atomic.Uint64
}

func newHistogram(buckets []time.Duration) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	bounds := make([]int64, len(buckets))
	prev := int64(-1)
	for i, b := range buckets {
		n := int64(b)
		if n <= prev {
			panic("obs: histogram buckets must be positive and strictly ascending")
		}
		bounds[i] = n
		prev = n
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1),
		ex: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration. Negative durations clamp to zero; values
// above the last bound land in the overflow (+Inf) bucket. Lock-free.
func (h *Histogram) Observe(d time.Duration) { h.ObserveExemplar(d, 0) }

// ObserveExemplar records one duration and, when traceID is non-zero,
// stamps the landing bucket's exemplar with it, so the rendered histogram
// can link each bucket to a recent trace. The observation itself is a
// binary search for the bucket plus two atomic adds.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID uint64) {
	n := int64(d)
	if n < 0 {
		n = 0
	}
	i := h.bucket(n)
	h.counts[i].Add(1)
	h.sum.Add(n)
	if traceID != 0 {
		h.ex[i].Store(traceID)
	}
}

// Exemplars returns the per-bucket exemplar trace ids (len(bounds)+1; the
// final entry is the overflow bucket). Zero means no traced observation has
// landed in that bucket.
func (h *Histogram) Exemplars() []uint64 {
	out := make([]uint64, len(h.ex))
	for i := range h.ex {
		out[i] = h.ex[i].Load()
	}
	return out
}

// bucket returns the index of the first bucket whose bound is >= n (the
// overflow index when none is). Binary search: the bound slice is small
// (≤64), so this is a handful of well-predicted comparisons.
func (h *Histogram) bucket(n int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// bucketCounts returns the per-bucket (non-cumulative) counts, len(bounds)+1;
// the final entry is the overflow bucket.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
