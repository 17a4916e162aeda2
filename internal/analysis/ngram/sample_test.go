package ngram

import "testing"

func alternating(n int) []string {
	out := make([]string, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = "ARM"
		} else {
			out[i] = "MVNG"
		}
	}
	return out
}

func TestMostLikelyFollowsLearnedPattern(t *testing.T) {
	m := Train([][]string{alternating(100)}, 2, 0.1)
	got := m.MostLikely([]string{"ARM"}, 6)
	want := []string{"ARM", "MVNG", "ARM", "MVNG", "ARM", "MVNG", "ARM"}
	if len(got) != len(want) {
		t.Fatalf("len %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("synthesized %v, want %v", got, want)
		}
	}
}

func TestMostLikelyDeterministic(t *testing.T) {
	m := Train([][]string{alternating(50), {"Q", "Q", "Q", "A"}}, 3, 0.1)
	a := m.MostLikely([]string{"Q", "Q"}, 10)
	b := m.MostLikely([]string{"Q", "Q"}, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MostLikely not deterministic")
		}
	}
}

func TestSampleEdgeCases(t *testing.T) {
	m := Train([][]string{{"A", "B"}}, 2, 1)
	if got := m.MostLikely([]string{"A"}, 0); len(got) != 1 {
		t.Errorf("n=0: %v", got)
	}
	empty := Train(nil, 2, 1)
	if got := empty.MostLikely([]string{"A"}, 3); len(got) != 1 {
		t.Errorf("empty vocab most-likely: %v", got)
	}
}

func TestSamplePrefixNotMutated(t *testing.T) {
	m := Train([][]string{alternating(20)}, 2, 0.1)
	prefix := []string{"ARM"}
	_ = m.MostLikely(prefix, 5)
	if len(prefix) != 1 || prefix[0] != "ARM" {
		t.Error("prefix mutated")
	}
}
