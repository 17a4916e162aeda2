package ids

import (
	"time"

	"rad/internal/store"
)

// This file implements another of the paper's stated next steps (§VII):
// "find ways to automatically generate labels". RAD labels only 25
// supervised runs; everything else is "unknown procedure". The AutoLabeler
// recovers labels for the unknown bulk in two steps: segment the trace
// stream into sessions at idle gaps (lab activity is bursty — a procedure
// run or prototyping session, then nothing for hours), then classify each
// session's TF-IDF fingerprint against the supervised runs, keeping the
// "unknown" label when no centroid is similar enough.

// sessionGap is the idle gap that separates two sessions: lab procedures
// poll devices at sub-minute intervals, so a quarter hour of silence means
// the session ended.
const sessionGap = 15 * time.Minute

// minSimilarity is the AutoLabeler's acceptance threshold: a session less
// similar than this to every centroid keeps the unknown label.
const minSimilarity = 0.75

// SegmentSessions splits records (in stream order) into sessions separated
// by idle gaps of at least sessionGap.
func SegmentSessions(recs []store.Record) [][]store.Record {
	var out [][]store.Record
	var cur []store.Record
	for i, r := range recs {
		if i > 0 && r.Time.Sub(recs[i-1].EndTime) >= sessionGap && len(cur) > 0 {
			out = append(out, cur)
			cur = nil
		}
		cur = append(cur, r)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// LabeledSegment is one auto-labelled session.
type LabeledSegment struct {
	Records []store.Record
	// Label is the assigned procedure type, or store.UnknownProcedure when
	// no centroid was similar enough.
	Label string
	// Similarity is the winning centroid's cosine similarity.
	Similarity float64
}

// AutoLabeler assigns procedure labels to unlabelled trace segments.
type AutoLabeler struct {
	clf *ProcedureClassifier
}

// NewAutoLabeler builds a labeler from supervised runs (parallel sequences
// and procedure labels).
func NewAutoLabeler(seqs [][]string, labels []string) (*AutoLabeler, error) {
	clf, err := TrainClassifier(seqs, labels)
	if err != nil {
		return nil, err
	}
	return &AutoLabeler{clf: clf}, nil
}

// Label segments the record stream and classifies every session.
func (al *AutoLabeler) Label(recs []store.Record) []LabeledSegment {
	sessions := SegmentSessions(recs)
	out := make([]LabeledSegment, 0, len(sessions))
	for _, session := range sessions {
		label, sim := al.clf.Classify(NameSequence(session))
		if sim < minSimilarity || label == "" {
			label = store.UnknownProcedure
		}
		out = append(out, LabeledSegment{Records: session, Label: label, Similarity: sim})
	}
	return out
}
