package tfidf

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCosineIdenticalAndOrthogonal(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	if got := Cosine(a, a); !almost(got, 1) {
		t.Errorf("self similarity = %v", got)
	}
	b := map[string]float64{"z": 3}
	if got := Cosine(a, b); got != 0 {
		t.Errorf("orthogonal similarity = %v", got)
	}
	if got := Cosine(a, map[string]float64{}); got != 0 {
		t.Errorf("empty vector similarity = %v", got)
	}
}

func TestTransformNormalizesCounts(t *testing.T) {
	docs := [][]string{
		{"ARM", "ARM", "MVNG", "Q"},
		{"Q", "Q", "Q", "V"},
	}
	v := Fit(docs)
	vec := v.Transform(docs[0])
	// ARM appears 2/4 of the doc; its tf is 0.5 before idf scaling.
	idfARM := v.IDF("ARM")
	if !almost(vec["ARM"], 0.5*idfARM) {
		t.Errorf("ARM weight = %v, want %v", vec["ARM"], 0.5*idfARM)
	}
	if len(v.Transform(nil)) != 0 {
		t.Error("empty doc should give empty vector")
	}
}

func TestIDFRareTermsWeighMore(t *testing.T) {
	docs := [][]string{
		{"common", "rare"},
		{"common"},
		{"common"},
		{"common"},
	}
	v := Fit(docs)
	if v.IDF("rare") <= v.IDF("common") {
		t.Errorf("idf(rare)=%v should exceed idf(common)=%v", v.IDF("rare"), v.IDF("common"))
	}
	// Unknown terms get the maximum idf.
	if v.IDF("never_seen") < v.IDF("rare") {
		t.Error("unseen term should have at least the rarest idf")
	}
}

func TestSimilarityMatrixProperties(t *testing.T) {
	docs := [][]string{
		{"ARM", "MVNG", "ARM", "MVNG"},
		{"ARM", "MVNG", "MVNG", "ARM"},
		{"Q", "V", "A", "Q"},
	}
	m := SimilarityMatrix(docs)
	if len(m) != 3 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := range m {
		if !almost(m[i][i], 1) {
			t.Errorf("diagonal [%d][%d] = %v", i, i, m[i][i])
		}
		for j := range m[i] {
			if !almost(m[i][j], m[j][i]) {
				t.Errorf("asymmetry at [%d][%d]", i, j)
			}
			if m[i][j] < -1e-12 || m[i][j] > 1+1e-12 {
				t.Errorf("similarity out of range: %v", m[i][j])
			}
		}
	}
	// Same-command docs are far more similar than disjoint-command docs.
	if m[0][1] < 0.9 {
		t.Errorf("similar docs score %v", m[0][1])
	}
	if m[0][2] > 0.1 {
		t.Errorf("disjoint docs score %v", m[0][2])
	}
}

// Property: cosine similarity is symmetric and bounded for arbitrary
// non-negative sparse vectors.
func TestCosineSymmetricBoundedProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := make(map[string]float64)
		b := make(map[string]float64)
		terms := []string{"t0", "t1", "t2", "t3", "t4"}
		for i, x := range xs {
			a[terms[i%len(terms)]] += float64(x)
		}
		for i, y := range ys {
			b[terms[i%len(terms)]] += float64(y)
		}
		s1, s2 := Cosine(a, b), Cosine(b, a)
		return almost(s1, s2) && s1 >= -1e-12 && s1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
