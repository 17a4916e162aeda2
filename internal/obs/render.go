package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (text/plain; version=0.0.4): families sorted by name
// with one # TYPE line each, children sorted by label block, histograms as
// cumulative _bucket{le=...} series plus _sum and _count. Values observed
// concurrently with the render are individually exact; see the package
// comment for the cross-metric consistency contract.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range r.entries() {
		if e.name != lastFamily {
			if help := r.helpFor(e.name); help != "" {
				bw.WriteString("# HELP ")
				bw.WriteString(e.name)
				bw.WriteByte(' ')
				bw.WriteString(help)
				bw.WriteByte('\n')
			}
			bw.WriteString("# TYPE ")
			bw.WriteString(e.name)
			bw.WriteByte(' ')
			bw.WriteString(e.kind.String())
			bw.WriteByte('\n')
			lastFamily = e.name
		}
		switch e.kind {
		case KindCounter:
			bw.WriteString(e.name)
			bw.WriteString(labelBlock(e.labels, ""))
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(e.counterValue(), 10))
			bw.WriteByte('\n')
		case KindGauge:
			bw.WriteString(e.name)
			bw.WriteString(labelBlock(e.labels, ""))
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(e.gaugeValue()))
			bw.WriteByte('\n')
		case KindHistogram:
			writeHistogram(bw, e)
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram child: cumulative buckets, sum in
// seconds, and the derived count.
func writeHistogram(bw *bufio.Writer, e *entry) {
	counts := e.hist.bucketCounts()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(e.hist.bounds) {
			le = formatFloat(float64(e.hist.bounds[i]) / 1e9)
		}
		bw.WriteString(e.name)
		bw.WriteString("_bucket")
		bw.WriteString(labelBlock(e.labels, `le="`+le+`"`))
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(cum, 10))
		bw.WriteByte('\n')
	}
	bw.WriteString(e.name)
	bw.WriteString("_sum")
	bw.WriteString(labelBlock(e.labels, ""))
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(float64(e.hist.Sum()) / 1e9))
	bw.WriteByte('\n')
	bw.WriteString(e.name)
	bw.WriteString("_count")
	bw.WriteString(labelBlock(e.labels, ""))
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')
}

// counterValue reads a counter child, direct or pull-based.
func (e *entry) counterValue() uint64 {
	if fn := e.cfn.Load(); fn != nil {
		return (*fn)()
	}
	return e.counter.Value()
}

// gaugeValue reads a gauge child through its callback.
func (e *entry) gaugeValue() float64 { return (*e.gfn.Load())() }

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trippable representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatTraceID renders an exemplar trace id as the 16-hex-digit form
// /debug/spans uses, so the two surfaces cross-reference directly.
func formatTraceID(id uint64) string {
	s := strconv.FormatUint(id, 16)
	if n := 16 - len(s); n > 0 {
		s = "0000000000000000"[:n] + s
	}
	return s
}

// Snapshot is the JSON shape of a registry render — the /snapshot endpoint
// and the radwatch -obs payload.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter child's point-in-time value.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnapshot is one gauge child's point-in-time value.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// HistogramSnapshot is one histogram child's cumulative bucket counts.
type HistogramSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	// SumSeconds is the total observed duration in seconds.
	SumSeconds float64  `json:"sumSeconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Bucket is one cumulative histogram bucket. UpperNanos is -1 for the
// overflow (+Inf) bucket; LE carries the Prometheus-style bound for
// display.
type Bucket struct {
	LE         string `json:"le"`
	UpperNanos int64  `json:"upperNanos"`
	Count      uint64 `json:"count"` // cumulative
	// ExemplarTraceID links this bucket to a recent traced observation: the
	// 16-hex-digit trace id of the last ObserveExemplar that landed here,
	// resolvable on /debug/spans. Empty when the bucket has never seen a
	// traced observation.
	ExemplarTraceID string `json:"exemplarTraceId,omitempty"`
}

// Quantile estimates the q-quantile (0 < q < 1) from the cumulative
// buckets by linear interpolation within the bucket that crosses the rank,
// Prometheus histogram_quantile-style. Returns 0 when the histogram is
// empty; ranks landing in the overflow bucket report the last finite
// bound (the estimate saturates).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var prevCum uint64
	var prevBound float64
	for _, b := range h.Buckets {
		if b.UpperNanos < 0 { // overflow: saturate at the last finite bound
			return prevBound
		}
		upper := float64(b.UpperNanos) / 1e9
		if float64(b.Count) >= rank {
			inBucket := float64(b.Count - prevCum)
			if inBucket == 0 {
				return upper
			}
			return prevBound + (upper-prevBound)*((rank-float64(prevCum))/inBucket)
		}
		prevCum = b.Count
		prevBound = upper
	}
	return prevBound
}

// Snapshot renders every registered metric into the JSON-friendly
// structure, in the same deterministic order as WritePrometheus.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	for _, e := range r.entries() {
		labels := labelMap(e.labels)
		switch e.kind {
		case KindCounter:
			s.Counters = append(s.Counters, CounterSnapshot{Name: e.name, Labels: labels, Value: e.counterValue()})
		case KindGauge:
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: e.name, Labels: labels, Value: e.gaugeValue()})
		case KindHistogram:
			counts := e.hist.bucketCounts()
			exemplars := e.hist.Exemplars()
			hs := HistogramSnapshot{
				Name: e.name, Labels: labels,
				SumSeconds: float64(e.hist.Sum()) / 1e9,
				Buckets:    make([]Bucket, 0, len(counts)),
			}
			var cum uint64
			for i, c := range counts {
				cum += c
				b := Bucket{LE: "+Inf", UpperNanos: -1, Count: cum}
				if i < len(e.hist.bounds) {
					b.LE = formatFloat(float64(e.hist.bounds[i]) / 1e9)
					b.UpperNanos = e.hist.bounds[i]
				}
				if id := exemplars[i]; id != 0 {
					b.ExemplarTraceID = formatTraceID(id)
				}
				hs.Buckets = append(hs.Buckets, b)
			}
			hs.Count = cum
			s.Histograms = append(s.Histograms, hs)
		}
	}
	return s
}

func labelMap(labels []label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.key] = l.value
	}
	return m
}
