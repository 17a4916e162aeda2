package metrics

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestTableIBigram reproduces the paper's Table I bigram column arithmetic:
// TP=3, TN=13, FP=9, FN=0 → accuracy 64%, weighted 67.85%, precision 0.25,
// F1 0.4.
func TestTableIBigram(t *testing.T) {
	c := Confusion{TP: 3, TN: 13, FP: 9, FN: 0}
	if got := c.Accuracy(); !almost(got, 0.64) {
		t.Errorf("accuracy = %v, want 0.64", got)
	}
	if got := c.WeightedAccuracy(); math.Abs(got-0.6785) > 1e-3 {
		t.Errorf("weighted accuracy = %v, want ≈0.6785", got)
	}
	if got := c.Precision(); !almost(got, 0.25) {
		t.Errorf("precision = %v, want 0.25", got)
	}
	if got := c.Recall(); !almost(got, 1.0) {
		t.Errorf("recall = %v, want 1.0", got)
	}
	if got := c.F1(); !almost(got, 0.4) {
		t.Errorf("F1 = %v, want 0.4", got)
	}
}

// TestTableITrigram checks the trigram column: TP=3, TN=18, FP=4, FN=0.
func TestTableITrigram(t *testing.T) {
	c := Confusion{TP: 3, TN: 18, FP: 4, FN: 0}
	if got := c.Accuracy(); !almost(got, 0.84) {
		t.Errorf("accuracy = %v, want 0.84", got)
	}
	if got := c.WeightedAccuracy(); math.Abs(got-0.8571) > 1e-3 {
		t.Errorf("weighted accuracy = %v, want ≈0.8571", got)
	}
	if got := c.Precision(); math.Abs(got-3.0/7) > 1e-9 {
		t.Errorf("precision = %v, want 3/7", got)
	}
	if got := c.F1(); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("F1 = %v, want 0.6", got)
	}
}

func TestTally(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	act := []bool{true, false, false, true, true}
	c := Tally(pred, act)
	want := Confusion{TP: 2, TN: 1, FP: 1, FN: 1}
	if c != want {
		t.Errorf("Tally = %+v, want %+v", c, want)
	}
	// Length mismatch tallies the common prefix.
	c = Tally([]bool{true}, []bool{true, false})
	if c.Total() != 1 {
		t.Errorf("mismatched lengths total = %d", c.Total())
	}
}

func TestZeroMatrixSafe(t *testing.T) {
	var c Confusion
	for name, v := range map[string]float64{
		"accuracy": c.Accuracy(), "weighted": c.WeightedAccuracy(),
		"precision": c.Precision(), "recall": c.Recall(), "f1": c.F1(),
	} {
		if v != 0 {
			t.Errorf("%s of empty matrix = %v", name, v)
		}
	}
}

func TestPerfectClassifier(t *testing.T) {
	c := Confusion{TP: 5, TN: 20}
	if c.Accuracy() != 1 || c.Precision() != 1 || c.Recall() != 1 || c.F1() != 1 || c.WeightedAccuracy() != 1 {
		t.Errorf("perfect classifier metrics: %+v", c)
	}
}
