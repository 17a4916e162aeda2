package ngram

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTopKBasic(t *testing.T) {
	seqs := [][]string{
		{"ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG"},
		{"Q", "Q", "Q"},
	}
	top := TopK(seqs, 2, 3)
	if len(top) != 3 {
		t.Fatalf("got %d n-grams", len(top))
	}
	if top[0].Key() != "ARM_MVNG" || top[0].Times != 3 {
		t.Errorf("top bigram = %s ×%d, want ARM_MVNG ×3", top[0].Key(), top[0].Times)
	}
	// MVNG_ARM ×2 and Q_Q ×2 tie; lexicographic order breaks it.
	if top[1].Key() != "MVNG_ARM" || top[2].Key() != "Q_Q" {
		t.Errorf("tie order: %s, %s", top[1].Key(), top[2].Key())
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if TopK(nil, 2, 5) != nil {
		t.Error("nil seqs should give nil")
	}
	if TopK([][]string{{"A"}}, 2, 5) != nil {
		t.Error("sequence shorter than n should give nil")
	}
	if TopK([][]string{{"A", "B"}}, 0, 5) != nil {
		t.Error("n=0 should give nil")
	}
	if TopK([][]string{{"A", "B"}}, 2, 0) != nil {
		t.Error("k=0 should give nil")
	}
	got := TopK([][]string{{"A", "B", "C"}}, 3, 10)
	if len(got) != 1 || got[0].Key() != "A_B_C" {
		t.Errorf("trigram of exact-length seq: %v", got)
	}
}

func TestModelProbabilitiesSumToOne(t *testing.T) {
	seqs := [][]string{{"A", "B", "A", "B", "A", "C"}}
	m := Train(seqs, 2, 1)
	vocab := []string{"A", "B", "C"}
	for _, ctx := range vocab {
		sum := 0.0
		for _, next := range vocab {
			sum += m.Prob([]string{ctx}, next)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("P(·|%s) sums to %v", ctx, sum)
		}
	}
}

func TestModelFavorsSeenTransitions(t *testing.T) {
	m := Train([][]string{{"A", "B", "A", "B", "A", "B"}}, 2, 1)
	pSeen := m.Prob([]string{"A"}, "B")
	pUnseen := m.Prob([]string{"A"}, "A")
	if pSeen <= pUnseen {
		t.Errorf("P(B|A)=%v should exceed P(A|A)=%v", pSeen, pUnseen)
	}
}

func TestPerplexityLowerForFamiliarSequence(t *testing.T) {
	train := [][]string{
		{"ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG"},
		{"ARM", "MVNG", "MVNG", "ARM", "MVNG", "ARM", "MVNG", "MVNG"},
	}
	for _, n := range []int{2, 3, 4} {
		m := Train(train, n, 1)
		familiar := m.Perplexity([]string{"ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG"})
		weird := m.Perplexity([]string{"MVNG", "MVNG", "MVNG", "ARM", "ARM", "ARM"})
		if familiar >= weird {
			t.Errorf("n=%d: familiar ppl %v should be below weird ppl %v", n, familiar, weird)
		}
	}
}

func TestPerplexityShortSequenceIsInf(t *testing.T) {
	m := Train([][]string{{"A", "B", "C", "D"}}, 3, 1)
	if got := m.Perplexity([]string{"A"}); !math.IsInf(got, 1) {
		t.Errorf("too-short sequence ppl = %v, want +Inf", got)
	}
	if got := m.Perplexity(nil); !math.IsInf(got, 1) {
		t.Errorf("empty sequence ppl = %v, want +Inf", got)
	}
}

func TestLogProbScoredPositions(t *testing.T) {
	m := Train([][]string{{"A", "B", "C", "D", "E"}}, 3, 1)
	_, scored := m.LogProb([]string{"A", "B", "C", "D", "E"})
	if scored != 3 { // positions 3..5
		t.Errorf("scored = %d, want 3", scored)
	}
}

func TestTrainDefaults(t *testing.T) {
	m := Train([][]string{{"A", "B"}}, 0, -1)
	if m.Order() != 1 {
		t.Errorf("order = %d, want clamped to 1", m.Order())
	}
	if len(m.vocab) != 2 {
		t.Errorf("vocab = %d", len(m.vocab))
	}
}

func TestLongContextUsesSuffix(t *testing.T) {
	m := Train([][]string{{"A", "B", "C", "A", "B", "C"}}, 2, 1)
	short := m.Prob([]string{"B"}, "C")
	long := m.Prob([]string{"X", "Y", "B"}, "C")
	if short != long {
		t.Errorf("long context %v != suffix context %v", long, short)
	}
}

// Property: perplexity is always >= 1 for sequences over the training
// vocabulary (it is a normalized inverse probability).
func TestPerplexityAtLeastOneProperty(t *testing.T) {
	vocab := []string{"A", "B", "C", "D"}
	m := Train([][]string{{"A", "B", "C", "D", "A", "B", "C", "D", "A", "C"}}, 2, 1)
	f := func(idxs []uint8) bool {
		if len(idxs) < 2 {
			return true
		}
		seq := make([]string, len(idxs))
		for i, ix := range idxs {
			seq[i] = vocab[int(ix)%len(vocab)]
		}
		return m.Perplexity(seq) >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: perplexity never exceeds the smoothed worst case (alpha=1 gives
// P >= 1/(count+V) bounded below by 1/(maxCtx+V)), so it is always finite
// for scorable sequences.
func TestPerplexityFiniteProperty(t *testing.T) {
	m := Train([][]string{{"A", "B", "A", "C"}}, 2, 1)
	f := func(idxs []uint8) bool {
		if len(idxs) < 2 {
			return true
		}
		vocab := []string{"A", "B", "C", "Z"} // Z unseen in training
		seq := make([]string, len(idxs))
		for i, ix := range idxs {
			seq[i] = vocab[int(ix)%len(vocab)]
		}
		return !math.IsInf(m.Perplexity(seq), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
