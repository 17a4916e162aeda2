package experiments

import (
	"rad/internal/analysis/tfidf"
	"rad/internal/rad"
)

// Fig6Result is the pairwise TF-IDF cosine-similarity matrix over the
// dataset's runs, in run ID order: 25×25 for the campaign (0–11 Joystick,
// 12–16 P1, 17–20 P2, 21–24 P3).
type Fig6Result struct {
	Matrix [][]float64
	Runs   []rad.RunInfo
}

// Fig6SimilarityMatrix reproduces Fig. 6 following §V-A's recipe: count
// commands per run, normalize to sum one, scale by TF-IDF, and compute all
// pairwise cosine similarities.
func Fig6SimilarityMatrix(ds *rad.Dataset) Fig6Result {
	seqs, _ := ds.SupervisedSequences()
	return Fig6Result{
		Matrix: tfidf.SimilarityMatrix(seqs),
		Runs:   ds.Runs,
	}
}

// BlockMean returns the mean similarity between two ID ranges (inclusive),
// excluding the diagonal — used to check Fig. 6's block structure, e.g. the
// joystick block IDs 0–11 or the truncated P2 pair 17–18.
func (f Fig6Result) BlockMean(aLo, aHi, bLo, bHi int) float64 {
	sum, n := 0.0, 0
	for i := aLo; i <= aHi; i++ {
		for j := bLo; j <= bHi; j++ {
			if i == j {
				continue
			}
			sum += f.Matrix[i][j]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
