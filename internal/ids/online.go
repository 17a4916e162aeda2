package ids

import (
	"errors"
	"fmt"
	"time"

	"rad/internal/analysis/jenks"
	"rad/internal/store"
)

// Alert is one structured online-IDS finding: which record (by sequence
// number) tripped which detector, the scored window, the thresholds in
// force, and the commands that produced the score.
type Alert struct {
	// Seq and Time identify the triggering record.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Source is "perplexity" or "rule:<name>".
	Source string `json:"source"`
	Device string `json:"device"`
	Key    string `json:"key"` // command type "Device.Name"
	// Score and Threshold are the window perplexity and the calibrated
	// alert threshold (perplexity alerts; zero for rule alerts).
	Score     float64 `json:"score,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// JenksBreak is the Jenks natural-breaks split over the recent
	// window-score history at alert time — the §V-B batch threshold
	// recomputed online for context. Zero when the history is not yet
	// separable into two classes.
	JenksBreak float64 `json:"jenksBreak,omitempty"`
	// Window holds the scored command window (perplexity alerts).
	Window []string `json:"window,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// OnlineConfig configures an online detector.
type OnlineConfig struct {
	// Detector is the trained perplexity model (required).
	Detector *PerplexityDetector
	// Window is the sliding-window size in commands (see
	// PerplexityDetector.NewStream for the default/minimum behaviour).
	Window int
	// Rules optionally runs the middlebox rule engine over the same feed.
	// The engine is stateful (initialization ordering), so it must be fresh
	// and must see the feed from its start.
	Rules *RuleEngine
}

// Online is the online intrusion detector: a sliding-window streaming
// perplexity scorer plus (optionally) the rule engine, consuming a live
// record feed one record at a time.
//
// Observe is its one outlet — one record in, the alerts it raised out — so
// the same detector runs over a network tail (radwatch -ids), a broker
// subscription, or a replayed slice of records. It keeps no alerts and is
// not safe for concurrent callers.
type Online struct {
	win   *Stream
	rules *RuleEngine

	history []float64 // rolling window scores, ring-ordered
	histAt  int
}

// ErrNoDetector is returned when OnlineConfig.Detector is nil.
var ErrNoDetector = errors.New("ids: OnlineConfig.Detector is required")

// NewOnline builds an online detector. The stream threshold is calibrated
// on same-sized windows over the detector's training data (the shared
// WindowScores path), exactly as the offline ablations score them.
func NewOnline(cfg OnlineConfig) (*Online, error) {
	if cfg.Detector == nil {
		return nil, ErrNoDetector
	}
	return &Online{
		win:     cfg.Detector.NewStream(cfg.Window),
		rules:   cfg.Rules,
		history: make([]float64, 0, scoreHistory),
	}, nil
}

// Threshold returns the calibrated streaming alert threshold.
func (d *Online) Threshold() float64 { return d.win.Threshold() }

// Observe feeds one record through the rule engine and the sliding-window
// scorer and returns the alerts it raised, rule alerts first.
func (d *Online) Observe(rec store.Record) []Alert {
	var out []Alert
	if d.rules != nil {
		for _, v := range d.rules.Check(rec) {
			out = append(out, Alert{
				Seq: rec.Seq, Time: rec.EndTime,
				Source: "rule:" + v.Rule,
				Device: rec.Device, Key: rec.Key(),
				Detail: v.Detail,
			})
		}
	}

	score, alert := d.win.Observe(rec.Name)
	if score == score { // record finite window scores in the rolling history
		d.pushScore(score)
	}
	if alert {
		out = append(out, Alert{
			Seq: rec.Seq, Time: rec.EndTime,
			Source: "perplexity",
			Device: rec.Device, Key: rec.Key(),
			Score: score, Threshold: d.win.Threshold(),
			JenksBreak: d.jenksBreak(),
			Window:     d.win.Window(),
			Detail: fmt.Sprintf("window perplexity %.3f exceeds threshold %.3f",
				score, d.win.Threshold()),
		})
	}
	return out
}

// scoreHistory bounds the rolling window-score population the online Jenks
// break is computed over.
const scoreHistory = 256

// pushScore appends a window score to the bounded rolling history.
func (d *Online) pushScore(s float64) {
	if len(d.history) < scoreHistory {
		d.history = append(d.history, s)
		return
	}
	d.history[d.histAt] = s
	d.histAt = (d.histAt + 1) % scoreHistory
}

// jenksBreak computes the two-class natural-breaks split over the rolling
// score history; zero when the history holds no separable structure.
func (d *Online) jenksBreak() float64 {
	if len(d.history) < 2 {
		return 0
	}
	scores := make([]float64, len(d.history))
	copy(scores, d.history)
	if _, breakVal, ok := jenks.Split2(scores); ok {
		return breakVal
	}
	return 0
}
