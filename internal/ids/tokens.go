package ids

import (
	"sort"
	"strconv"
	"strings"

	"rad/internal/store"
)

// This file implements the paper's stated immediate goal (§VII): "bring
// command arguments into the fold". Command names alone cannot expose a
// speed or parameter-tampering attack — the sequence of names is unchanged —
// so the ArgQuantizer turns each trace record into a token that carries its
// arguments' quantized magnitudes, with dedicated outlier buckets for values
// outside anything seen in training. An n-gram model over these tokens is
// the argument-aware variant of the §V-B detector.

// DefaultArgBuckets is the per-argument quantization resolution.
const DefaultArgBuckets = 4

// ArgQuantizer maps numeric command arguments onto training-calibrated
// quantile buckets.
type ArgQuantizer struct {
	buckets int
	// bounds[key] holds the sorted interior quantile boundaries for one
	// (device, command, argument-index) stream of numeric values.
	bounds map[string][]float64
	// seen[key] records categorical argument values observed in training.
	seen map[string]map[string]struct{}
}

func argKey(dev, name string, idx int) string {
	return dev + "." + name + "/" + strconv.Itoa(idx)
}

// FitArgQuantizer calibrates a quantizer on training records. buckets <= 1
// selects DefaultArgBuckets.
func FitArgQuantizer(recs []store.Record, buckets int) *ArgQuantizer {
	if buckets <= 1 {
		buckets = DefaultArgBuckets
	}
	numeric := make(map[string][]float64)
	categorical := make(map[string]map[string]struct{})
	for _, r := range recs {
		for i, a := range r.Args {
			key := argKey(r.Device, r.Name, i)
			if v, err := strconv.ParseFloat(a, 64); err == nil {
				numeric[key] = append(numeric[key], v)
				continue
			}
			if categorical[key] == nil {
				categorical[key] = make(map[string]struct{})
			}
			categorical[key][a] = struct{}{}
		}
	}
	q := &ArgQuantizer{buckets: buckets, bounds: make(map[string][]float64), seen: categorical}
	for key, vals := range numeric {
		sort.Float64s(vals)
		bnds := make([]float64, 0, buckets+1)
		// Interior quantiles plus the observed min/max as range guards.
		bnds = append(bnds, vals[0])
		for b := 1; b < buckets; b++ {
			pos := float64(b) / float64(buckets) * float64(len(vals)-1)
			bnds = append(bnds, vals[int(pos)])
		}
		bnds = append(bnds, vals[len(vals)-1])
		q.bounds[key] = bnds
	}
	return q
}

// argToken renders one argument: a quantile bucket ("q0".."qN-1"), an
// out-of-range marker ("lo"/"hi" — the tamper signal), a known categorical
// value, or "new" for a categorical value never seen in training.
func (q *ArgQuantizer) argToken(dev, name string, idx int, arg string) string {
	key := argKey(dev, name, idx)
	if v, err := strconv.ParseFloat(arg, 64); err == nil {
		bnds, ok := q.bounds[key]
		if !ok {
			return "num?" // numeric where training saw none
		}
		switch {
		case v < bnds[0]:
			return "lo"
		case v > bnds[len(bnds)-1]:
			return "hi"
		}
		// Interior bucket by binary search over the interior boundaries.
		interior := bnds[1 : len(bnds)-1]
		b := sort.SearchFloat64s(interior, v)
		return "q" + strconv.Itoa(b)
	}
	if vals, ok := q.seen[key]; ok {
		if _, known := vals[arg]; known {
			return arg
		}
	}
	return "new"
}

// Token renders one record as an argument-aware token:
// NAME or NAME(tok1,tok2,...).
func (q *ArgQuantizer) Token(r store.Record) string {
	if len(r.Args) == 0 {
		return r.Name
	}
	parts := make([]string, len(r.Args))
	for i, a := range r.Args {
		parts[i] = q.argToken(r.Device, r.Name, i, a)
	}
	return r.Name + "(" + strings.Join(parts, ",") + ")"
}

// Tokenize converts a record stream into the argument-aware token sequence.
func (q *ArgQuantizer) Tokenize(recs []store.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = q.Token(r)
	}
	return out
}

// NameSequence is the name-only baseline tokenization (§V's original
// representation).
func NameSequence(recs []store.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}

// TrainArgAwarePerplexity fits the argument-aware variant of the perplexity
// detector: it calibrates a quantizer on the training records, tokenizes
// each training run, and trains an order-n model over the tokens. Score new
// runs with ScoreRecords.
func TrainArgAwarePerplexity(trainRuns [][]store.Record, n, buckets int) (*ArgAwareDetector, error) {
	if len(trainRuns) == 0 {
		return nil, ErrNoTrainingData
	}
	var flat []store.Record
	for _, run := range trainRuns {
		flat = append(flat, run...)
	}
	q := FitArgQuantizer(flat, buckets)
	seqs := make([][]string, len(trainRuns))
	for i, run := range trainRuns {
		seqs[i] = q.Tokenize(run)
	}
	det, err := TrainPerplexity(seqs, n)
	if err != nil {
		return nil, err
	}
	return &ArgAwareDetector{quantizer: q, detector: det}, nil
}

// ArgAwareDetector couples a fitted quantizer with a perplexity detector
// over argument-aware tokens.
type ArgAwareDetector struct {
	quantizer *ArgQuantizer
	detector  *PerplexityDetector
}

// Threshold returns the decision threshold.
func (d *ArgAwareDetector) Threshold() float64 { return d.detector.Threshold() }

// ScoreRecords returns the run's perplexity under the token model.
func (d *ArgAwareDetector) ScoreRecords(run []store.Record) float64 {
	return d.detector.Score(d.quantizer.Tokenize(run))
}

// Anomalous reports whether the run scores above the threshold.
func (d *ArgAwareDetector) Anomalous(run []store.Record) bool {
	return d.detector.Anomalous(d.quantizer.Tokenize(run))
}
