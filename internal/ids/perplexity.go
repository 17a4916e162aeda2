// Package ids implements the intrusion-detection prototypes that RAD was
// collected to support (§I, §V, §VI): a perplexity-based anomaly detector
// over command streams (the paper's §V-B pipeline, made streaming), a TF-IDF
// procedure classifier (§V-A's RQ1), a rule-based IDS of the kind the
// middlebox deploys as a first-line safeguard, and a power side-channel
// detector matching joint-current signatures (§VI).
package ids

import (
	"errors"
	"math"

	"rad/internal/analysis/ngram"
	"rad/internal/parallel"
)

// PerplexityDetector classifies command sequences as benign or anomalous by
// their n-gram perplexity against a model trained on valid runs, with the
// decision threshold placed by Jenks natural breaks over the training
// scores (§V-B).
type PerplexityDetector struct {
	model     *ngram.Model
	threshold float64
	// train is retained so streaming detectors can calibrate their own
	// thresholds on windows of the training data (short windows score
	// systematically higher than whole sequences).
	train [][]string
}

// ErrNoTrainingData is returned when the detector cannot be trained.
var ErrNoTrainingData = errors.New("ids: no training sequences")

// TrainPerplexity fits an order-n detector on valid command sequences. The
// threshold is set from the training runs' own perplexity distribution: the
// maximum training perplexity times a small slack, so that everything the
// model has seen counts as benign.
func TrainPerplexity(train [][]string, n int) (*PerplexityDetector, error) {
	if len(train) == 0 {
		return nil, ErrNoTrainingData
	}
	model := ngram.Train(train, n, 1)
	// Scoring each training sequence is independent; fan out and take the
	// max over the per-sequence scores (a commutative reduction, so the
	// threshold is identical at any worker count).
	ppls, _ := parallel.Map(train, 0, func(_ int, seq []string) (float64, error) {
		return model.Perplexity(seq), nil
	})
	maxPPL := 0.0
	for _, p := range ppls {
		if !math.IsInf(p, 1) && p > maxPPL {
			maxPPL = p
		}
	}
	if maxPPL == 0 {
		maxPPL = 1
	}
	return &PerplexityDetector{model: model, threshold: maxPPL * 1.05, train: train}, nil
}

// Threshold returns the detector's decision threshold.
func (d *PerplexityDetector) Threshold() float64 { return d.threshold }

// ScoreWindow returns the window's perplexity under the trained model. It
// is the single scoring path shared by every mode — batch classification
// over whole runs, threshold calibration, and the online streaming detector
// — so offline and online scores for identical windows are identical by
// construction (pinned by TestWindowScoreParityOfflineOnline).
func (d *PerplexityDetector) ScoreWindow(window []string) float64 {
	return d.model.Perplexity(window)
}

// Score returns the sequence's perplexity under the trained model. A whole
// sequence is just one maximal window.
func (d *PerplexityDetector) Score(seq []string) float64 {
	return d.ScoreWindow(seq)
}

// WindowScores slides a window of the given size over seq and scores every
// position through ScoreWindow. A sequence no longer than the window yields
// exactly one score (the whole sequence). This is the calibration kernel:
// NewStream's threshold and any Jenks split over window scores both consume
// it, so no smoothing or normalization logic exists anywhere else.
func (d *PerplexityDetector) WindowScores(seq []string, window int) []float64 {
	if len(seq) <= window {
		return []float64{d.ScoreWindow(seq)}
	}
	out := make([]float64, 0, len(seq)-window+1)
	for i := 0; i+window <= len(seq); i++ {
		out = append(out, d.ScoreWindow(seq[i:i+window]))
	}
	return out
}

// Anomalous reports whether the sequence scores above the threshold.
func (d *PerplexityDetector) Anomalous(seq []string) bool {
	return d.Score(seq) > d.threshold
}

// Stream is a real-time detector over one live command stream: it maintains
// the running perplexity of the most recent window commands and raises once
// the score exceeds the stream's window-calibrated threshold — the §V-B
// technique "adapted to real time detection" that the paper motivates.
type Stream struct {
	d         *PerplexityDetector
	window    []string
	size      int
	threshold float64
}

// NewStream creates a streaming context with the given window size (the
// number of most-recent commands scored). Sizes below the model order are
// raised to 4× the order.
//
// The stream's alert threshold is calibrated on same-sized windows slid over
// the detector's training sequences: short windows land on locally rare
// regions (a single dosing cycle, a setup phase) and score higher than whole
// runs, so the full-sequence threshold would flood a stream with alerts.
func (d *PerplexityDetector) NewStream(window int) *Stream {
	if window < d.model.Order() {
		window = d.model.Order() * 4
	}
	s := &Stream{d: d, size: window, threshold: d.threshold}
	// Calibration slides the window over every training sequence — the most
	// expensive step of stream construction. Each sequence's maximum is
	// independent; compute them concurrently and reduce serially. The
	// scoring itself is the shared WindowScores kernel, so calibration sees
	// exactly the scores the live stream will produce.
	maxima, _ := parallel.Map(d.train, 0, func(_ int, seq []string) (float64, error) {
		local := 0.0
		for _, p := range d.WindowScores(seq, window) {
			if !math.IsInf(p, 1) && p > local {
				local = p
			}
		}
		return local, nil
	})
	maxWindow := 0.0
	for _, p := range maxima {
		if p > maxWindow {
			maxWindow = p
		}
	}
	if maxWindow > 0 {
		s.threshold = maxWindow * 1.05
	}
	return s
}

// Threshold returns the stream's window-calibrated alert threshold.
func (s *Stream) Threshold() float64 { return s.threshold }

// Observe feeds one command and returns the current window perplexity and
// whether it breaches the threshold. Until the window has at least one
// scorable transition the score is NaN and alert is false.
func (s *Stream) Observe(command string) (score float64, alert bool) {
	s.window = append(s.window, command)
	if len(s.window) > s.size {
		s.window = s.window[1:]
	}
	if len(s.window) <= s.d.model.Order()-1 {
		return math.NaN(), false
	}
	score = s.d.ScoreWindow(s.window)
	// Alert only on full windows: partial windows score few transitions and
	// their perplexity estimate is too noisy to act on.
	return score, len(s.window) == s.size && score > s.threshold
}
