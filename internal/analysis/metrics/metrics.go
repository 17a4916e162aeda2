// Package metrics implements the binary-classification metrics of Table I:
// accuracy, weighted accuracy (true positives weighted 2×, footnote 3),
// precision, recall, and F1 score over a confusion matrix.
package metrics

// Confusion is a binary confusion matrix. Positives are anomalies.
type Confusion struct {
	TP, TN, FP, FN int
}

// Tally builds a confusion matrix from parallel prediction/truth slices.
// Slices of different lengths tally only the common prefix.
func Tally(predicted, actual []bool) Confusion {
	n := len(predicted)
	if len(actual) < n {
		n = len(actual)
	}
	var c Confusion
	for i := 0; i < n; i++ {
		switch {
		case predicted[i] && actual[i]:
			c.TP++
		case !predicted[i] && !actual[i]:
			c.TN++
		case predicted[i] && !actual[i]:
			c.FP++
		default:
			c.FN++
		}
	}
	return c
}

// Total returns the number of classified samples.
func (c Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy returns (TP+TN)/total, or 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// WeightedAccuracy weights the true-positive count 2× over true negatives
// (Table I footnote: anomaly detection cares more about catching anomalies):
// (2·TP + TN) / (2·(TP+FN) + TN + FP).
func (c Confusion) WeightedAccuracy() float64 {
	den := 2*(c.TP+c.FN) + c.TN + c.FP
	if den == 0 {
		return 0
	}
	return float64(2*c.TP+c.TN) / float64(den)
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there are no actual positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
