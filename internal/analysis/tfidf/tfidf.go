// Package tfidf implements the TF-IDF fingerprinting of §V-A: normalized
// term frequencies scaled by inverse document frequency, compared with
// cosine similarity. Documents are procedure runs; terms are command names.
package tfidf

import (
	"math"

	"rad/internal/parallel"
)

// Vectorizer holds the IDF weights fitted on a corpus of runs.
type Vectorizer struct {
	idf  map[string]float64
	nDoc int
}

// Fit computes smoothed inverse document frequencies over the corpus,
// sklearn-style: idf(t) = ln((1+N)/(1+df(t))) + 1. Smoothing keeps terms
// that appear in every document from vanishing entirely and terms unseen at
// fit time finite.
func Fit(docs [][]string) *Vectorizer {
	df := make(map[string]int)
	for _, doc := range docs {
		seen := make(map[string]struct{})
		for _, term := range doc {
			if _, ok := seen[term]; !ok {
				seen[term] = struct{}{}
				df[term]++
			}
		}
	}
	v := &Vectorizer{idf: make(map[string]float64, len(df)), nDoc: len(docs)}
	for term, n := range df {
		v.idf[term] = math.Log(float64(1+len(docs))/float64(1+n)) + 1
	}
	return v
}

// IDF returns the fitted inverse document frequency for a term. Terms unseen
// during Fit get the maximum idf (ln(1+N) + 1), as a fully novel term.
func (v *Vectorizer) IDF(term string) float64 {
	if w, ok := v.idf[term]; ok {
		return w
	}
	return math.Log(float64(1+v.nDoc)) + 1
}

// Transform computes the run's TF-IDF vector following §V-A: (i) count each
// command, (ii) normalize counts to sum to one, (iii) scale by IDF. The
// resulting sparse vector is not length-normalized; Cosine handles that.
func (v *Vectorizer) Transform(doc []string) map[string]float64 {
	if len(doc) == 0 {
		return map[string]float64{}
	}
	tf := make(map[string]float64)
	for _, term := range doc {
		tf[term]++
	}
	out := make(map[string]float64, len(tf))
	n := float64(len(doc))
	for term, count := range tf {
		out[term] = count / n * v.IDF(term)
	}
	return out
}

// Cosine returns the cosine similarity of two sparse vectors, in [0, 1] for
// non-negative weights. Zero vectors have similarity 0.
func Cosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for term, x := range a {
		na += x * x
		if y, ok := b[term]; ok {
			dot += x * y
		}
	}
	for _, y := range b {
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// SimilarityMatrix fits a vectorizer on the runs and returns all pairwise
// cosine similarities — Fig. 6's 25×25 matrix for RAD's supervised runs.
// Rows are computed on GOMAXPROCS workers; the result is identical to a
// serial computation.
func SimilarityMatrix(docs [][]string) [][]float64 {
	return SimilarityMatrixParallel(docs, 0)
}

// SimilarityMatrixParallel is SimilarityMatrix with an explicit worker bound
// (<= 0 selects GOMAXPROCS). Workers fill the upper triangle — each row i
// owns the cells j >= i, so no two workers touch the same cell — and a
// serial pass mirrors it onto the lower triangle afterwards.
func SimilarityMatrixParallel(docs [][]string, workers int) [][]float64 {
	v := Fit(docs)
	vecs, _ := parallel.Map(docs, workers, func(_ int, doc []string) (map[string]float64, error) {
		return v.Transform(doc), nil
	})
	m := make([][]float64, len(docs))
	_ = parallel.ForEach(len(docs), workers, func(i int) error {
		m[i] = make([]float64, len(docs))
		for j := i; j < len(docs); j++ {
			m[i][j] = Cosine(vecs[i], vecs[j])
		}
		return nil
	})
	for i := range m {
		for j := 0; j < i; j++ {
			m[i][j] = m[j][i]
		}
	}
	return m
}
