package ids

import (
	"math"
	"testing"
)

// TestWindowScoreParityOfflineOnline pins the shared-scoring-path contract:
// the streaming detector's per-step window score must equal the offline
// WindowScores kernel over the same sequence, position for position, bit for
// bit — offline ablations and the online IDS must never disagree about a
// window's perplexity.
func TestWindowScoreParityOfflineOnline(t *testing.T) {
	train := [][]string{
		repeat([]string{"HOME", "MVNG", "GRIP", "RLSE"}, 20),
		repeat([]string{"HOME", "ARM", "MVNG", "GRIP", "RLSE"}, 16),
	}
	d, err := TrainPerplexity(train, 2)
	if err != nil {
		t.Fatal(err)
	}
	const window = 8
	// An evaluation sequence mixing trained and novel commands.
	eval := append(repeat([]string{"HOME", "MVNG", "GRIP", "RLSE"}, 6),
		"ARM", "ZAP", "MVNG", "ZAP", "GRIP", "HOME", "MVNG", "GRIP", "RLSE")

	offline := d.WindowScores(eval, window)

	s := d.NewStream(window)
	var online []float64
	for _, cmd := range eval {
		score, _ := s.Observe(cmd)
		// The stream reports scores as soon as a transition is scorable;
		// offline WindowScores only scores full window positions. Compare
		// on the full-window positions.
		online = append(online, score)
	}
	// Online position i (0-based) holds the score of eval[i-window+1 : i+1]
	// once i >= window-1, which is offline index i-window+1.
	for i := window - 1; i < len(eval); i++ {
		got := online[i]
		want := offline[i-window+1]
		if math.IsNaN(got) {
			t.Fatalf("online score at %d is NaN", i)
		}
		if got != want {
			t.Errorf("window ending at %d: online %.12f != offline %.12f", i, got, want)
		}
	}

	// Whole-sequence parity: Score, ScoreWindow, and a WindowScores call
	// with an over-long window are the same number.
	whole := d.Score(eval)
	if got := d.ScoreWindow(eval); got != whole {
		t.Errorf("ScoreWindow %.12f != Score %.12f", got, whole)
	}
	if got := d.WindowScores(eval, len(eval)+10); len(got) != 1 || got[0] != whole {
		t.Errorf("WindowScores(oversized) = %v, want [%.12f]", got, whole)
	}
}

// TestTrainingWindowScoresMatchesStreamCalibration checks the calibration
// population: the stream threshold is the max finite window score over the
// training sequences times the 1.05 slack, each computed through the
// WindowScores kernel.
func TestTrainingWindowScoresMatchesStreamCalibration(t *testing.T) {
	train := [][]string{
		repeat([]string{"A", "B", "C"}, 30),
		repeat([]string{"A", "C", "B", "C"}, 25),
	}
	d, err := TrainPerplexity(train, 2)
	if err != nil {
		t.Fatal(err)
	}
	const window = 6
	maxScore := 0.0
	for _, seq := range train {
		for _, p := range d.WindowScores(seq, window) {
			if !math.IsInf(p, 1) && p > maxScore {
				maxScore = p
			}
		}
	}
	s := d.NewStream(window)
	if want := maxScore * 1.05; s.Threshold() != want {
		t.Errorf("stream threshold %.12f, want %.12f (max training window score × 1.05)",
			s.Threshold(), want)
	}
}
