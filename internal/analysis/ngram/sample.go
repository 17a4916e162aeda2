package ngram

import "sort"

// This file implements the program-synthesis use case §V motivates: "program
// synthesis, generating a sequence of low-level commands from a high-level
// specification". A trained command language model can extend a prefix with
// plausible continuations by following its most likely path.

// MostLikely extends prefix with n tokens by greedily following the model's
// argmax continuation — the skeleton of the procedure the model has learned.
// Ties break lexicographically for determinism.
func (m *Model) MostLikely(prefix []string, n int) []string {
	if len(m.vocab) == 0 || n <= 0 {
		return append([]string(nil), prefix...)
	}
	vocab := m.vocabList()
	out := append([]string(nil), prefix...)
	for k := 0; k < n; k++ {
		ctx := context(out, m.n-1)
		best, bestP := "", -1.0
		for _, tok := range vocab {
			if p := m.Prob(ctx, tok); p > bestP || (p == bestP && tok < best) {
				best, bestP = tok, p
			}
		}
		out = append(out, best)
	}
	return out
}

// vocabList returns the vocabulary in sorted order for deterministic
// iteration.
func (m *Model) vocabList() []string {
	out := make([]string, 0, len(m.vocab))
	for tok := range m.vocab {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// context returns the last w tokens of seq.
func context(seq []string, w int) []string {
	if len(seq) <= w {
		return seq
	}
	return seq[len(seq)-w:]
}
