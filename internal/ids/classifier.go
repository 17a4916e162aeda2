package ids

import (
	"errors"

	"rad/internal/analysis/tfidf"
)

// ProcedureClassifier answers §V-A's RQ1 — "can we identify the lab's
// different scientific procedures?" — by nearest-centroid matching over
// TF-IDF fingerprints: each known procedure type's labelled runs are
// averaged into a centroid and a new run is assigned to the most similar
// centroid by cosine similarity.
type ProcedureClassifier struct {
	vec       *tfidf.Vectorizer
	centroids map[string]map[string]float64
}

// ErrNoLabelledRuns is returned when training data is empty.
var ErrNoLabelledRuns = errors.New("ids: no labelled runs")

// TrainClassifier fits the classifier on labelled runs: parallel slices of
// command sequences and their procedure labels.
func TrainClassifier(seqs [][]string, labels []string) (*ProcedureClassifier, error) {
	if len(seqs) == 0 || len(seqs) != len(labels) {
		return nil, ErrNoLabelledRuns
	}
	vec := tfidf.Fit(seqs)
	sum := make(map[string]map[string]float64)
	count := make(map[string]int)
	for i, seq := range seqs {
		v := vec.Transform(seq)
		label := labels[i]
		if sum[label] == nil {
			sum[label] = make(map[string]float64)
		}
		for term, w := range v {
			sum[label][term] += w
		}
		count[label]++
	}
	for label, terms := range sum {
		for term := range terms {
			terms[term] /= float64(count[label])
		}
	}
	return &ProcedureClassifier{vec: vec, centroids: sum}, nil
}

// Classify returns the best-matching procedure label and its cosine
// similarity. An empty sequence returns ("", 0).
func (c *ProcedureClassifier) Classify(seq []string) (label string, similarity float64) {
	if len(seq) == 0 {
		return "", 0
	}
	v := c.vec.Transform(seq)
	best := ""
	bestSim := -1.0
	for l, centroid := range c.centroids {
		if sim := tfidf.Cosine(v, centroid); sim > bestSim || (sim == bestSim && l < best) {
			best, bestSim = l, sim
		}
	}
	if bestSim < 0 {
		return "", 0
	}
	return best, bestSim
}

// Labels returns the known procedure labels.
func (c *ProcedureClassifier) Labels() []string {
	out := make([]string, 0, len(c.centroids))
	for l := range c.centroids {
		out = append(out, l)
	}
	return out
}
