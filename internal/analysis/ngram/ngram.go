// Package ngram implements the n-gram language modelling used in §V: n-gram
// frequency counting (Fig. 5b), conditional n-gram probabilities with
// Laplace smoothing, and the length-normalized perplexity score of §V-B used
// to classify unexpected procedure variations.
package ngram

import (
	"math"
	"sort"
	"strings"

	"rad/internal/parallel"
)

// Count is one n-gram with its number of occurrences.
type Count struct {
	Gram  []string
	Times int
}

// Key renders the n-gram in the paper's figure style: commands joined by '_'.
func (c Count) Key() string { return strings.Join(c.Gram, "_") }

// TopK returns the k most frequent n-grams of size n across the sequences,
// most frequent first; ties break lexicographically for determinism. Large
// corpora are counted concurrently on GOMAXPROCS workers; the result is
// identical to a serial count.
func TopK(seqs [][]string, n, k int) []Count {
	return TopKParallel(seqs, n, k, 0)
}

// parallelGramFloor is the corpus size (in scorable n-gram positions) below
// which counting stays serial: splitting tiny corpora costs more than it
// saves.
const parallelGramFloor = 1 << 14

// TopKParallel is TopK with an explicit worker bound (<= 0 selects
// GOMAXPROCS). Every worker count produces identical output.
func TopKParallel(seqs [][]string, n, k, workers int) []Count {
	if n <= 0 || k <= 0 {
		return nil
	}
	counts := CountGrams(seqs, n, workers)
	if len(counts) == 0 {
		return nil
	}
	all := make([]Count, 0, len(counts))
	for key, times := range counts {
		all = append(all, Count{Gram: strings.Split(key, "\x00"), Times: times})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Times != all[j].Times {
			return all[i].Times > all[j].Times
		}
		return all[i].Key() < all[j].Key()
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// gramChunk is one worker-sized slice of one sequence. Chunks overlap by
// n-1 tokens so that no n-gram spanning a cut is lost and none is counted
// twice: chunk [lo, hi) owns exactly the grams starting in [lo, hi-n+1).
type gramChunk struct {
	seq      []string
	overlaps bool // not the final chunk of its sequence
}

// splitGramChunks cuts the corpus into roughly equal-work chunks for
// counting. A sequence shorter than the chunk size stays whole.
func splitGramChunks(seqs [][]string, n, chunkSize int) []gramChunk {
	var chunks []gramChunk
	for _, seq := range seqs {
		for lo := 0; lo < len(seq); lo += chunkSize {
			hi := lo + chunkSize + n - 1
			if hi >= len(seq) {
				chunks = append(chunks, gramChunk{seq: seq[lo:]})
				break
			}
			chunks = append(chunks, gramChunk{seq: seq[lo:hi], overlaps: true})
		}
	}
	return chunks
}

// countInto tallies the chunk's n-grams into counts. Overlapping chunks own
// only the grams that start before their overlap region.
func (c gramChunk) countInto(n int, counts map[string]int) {
	limit := len(c.seq)
	if c.overlaps {
		limit -= n - 1
	}
	for i := 0; i+n <= len(c.seq) && i < limit; i++ {
		counts[strings.Join(c.seq[i:i+n], "\x00")]++
	}
}

// CountGrams counts every n-gram across the sequences, fanning the corpus
// out over at most workers goroutines (<= 0 selects GOMAXPROCS) with
// per-worker local maps that are summed at the end. Summation is
// commutative, so the returned map is identical for every worker count.
func CountGrams(seqs [][]string, n, workers int) map[string]int {
	if n <= 0 {
		return map[string]int{}
	}
	total := 0
	for _, seq := range seqs {
		if len(seq) >= n {
			total += len(seq) - n + 1
		}
	}
	workers = parallel.Workers(workers)
	if workers == 1 || total < parallelGramFloor {
		counts := make(map[string]int)
		for _, seq := range seqs {
			gramChunk{seq: seq}.countInto(n, counts)
		}
		return counts
	}
	// Aim for a few chunks per worker so a skewed chunk cannot straggle.
	chunkSize := total/(workers*4) + 1
	chunks := splitGramChunks(seqs, n, chunkSize)
	locals, _ := parallel.Map(chunks, workers, func(_ int, c gramChunk) (map[string]int, error) {
		local := make(map[string]int)
		c.countInto(n, local)
		return local, nil
	})
	merged := make(map[string]int)
	for _, local := range locals {
		for key, times := range local {
			merged[key] += times
		}
	}
	return merged
}

// Model is an n-gram language model with Laplace (add-alpha) smoothing over
// the training vocabulary.
type Model struct {
	n     int
	alpha float64
	vocab map[string]struct{}
	// context counts and context→next counts.
	ctx  map[string]int
	next map[string]int
}

// Train fits an order-n model on the training sequences. alpha is the
// Laplace smoothing constant (alpha <= 0 selects 1, plain add-one smoothing,
// which keeps unseen transitions finite — a requirement when scoring
// anomalous sequences containing patterns absent from training).
func Train(seqs [][]string, n int, alpha float64) *Model {
	if n < 1 {
		n = 1
	}
	if alpha <= 0 {
		alpha = 1
	}
	m := &Model{
		n: n, alpha: alpha,
		vocab: make(map[string]struct{}),
		ctx:   make(map[string]int),
		next:  make(map[string]int),
	}
	for _, seq := range seqs {
		for _, tok := range seq {
			m.vocab[tok] = struct{}{}
		}
		for i := 0; i+n <= len(seq); i++ {
			context := strings.Join(seq[i:i+n-1], "\x00")
			m.ctx[context]++
			m.next[context+"\x00"+seq[i+n-1]]++
		}
	}
	return m
}

// Order returns the model's n.
func (m *Model) Order() int { return m.n }

// Prob returns the smoothed conditional probability P(next | context). The
// context must have length n-1; longer contexts use their last n-1 items.
func (m *Model) Prob(context []string, next string) float64 {
	if len(context) > m.n-1 {
		context = context[len(context)-(m.n-1):]
	}
	key := strings.Join(context, "\x00")
	v := float64(len(m.vocab))
	if v == 0 {
		return 0
	}
	num := float64(m.next[key+"\x00"+next]) + m.alpha
	den := float64(m.ctx[key]) + m.alpha*v
	return num / den
}

// LogProb returns the total log probability of the sequence under the model,
// scoring positions n through len(seq) as in §V-B. It also returns the
// number of scored positions.
func (m *Model) LogProb(seq []string) (logp float64, scored int) {
	for i := m.n - 1; i < len(seq); i++ {
		p := m.Prob(seq[i-(m.n-1):i], seq[i])
		logp += math.Log(p)
		scored++
	}
	return logp, scored
}

// Perplexity returns the length-normalized inverse probability of the
// sequence: (∏ 1/P(ci|context))^(1/scored). Lower suggests a benign trace,
// higher an anomaly (§V-B). Sequences too short to score return +Inf: a
// procedure that stopped almost immediately is maximally surprising.
func (m *Model) Perplexity(seq []string) float64 {
	logp, scored := m.LogProb(seq)
	if scored == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logp / float64(scored))
}
