package ids

import (
	"testing"
	"time"

	"rad/internal/store"
)

func timedRec(name string, at time.Time) store.Record {
	return store.Record{Device: "C9", Name: name, Time: at, EndTime: at.Add(5 * time.Millisecond)}
}

func TestSegmentSessionsSplitsAtGaps(t *testing.T) {
	t0 := time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC)
	var recs []store.Record
	// Session 1: three commands seconds apart.
	for i := 0; i < 3; i++ {
		recs = append(recs, timedRec("ARM", t0.Add(time.Duration(i)*time.Second)))
	}
	// Two hours of silence, then session 2.
	t1 := t0.Add(2 * time.Hour)
	for i := 0; i < 2; i++ {
		recs = append(recs, timedRec("Q", t1.Add(time.Duration(i)*time.Second)))
	}
	sessions := SegmentSessions(recs)
	if len(sessions) != 2 {
		t.Fatalf("%d sessions, want 2", len(sessions))
	}
	if len(sessions[0]) != 3 || len(sessions[1]) != 2 {
		t.Errorf("session sizes %d, %d", len(sessions[0]), len(sessions[1]))
	}
}

func TestSegmentSessionsNoGap(t *testing.T) {
	t0 := time.Unix(0, 0)
	recs := []store.Record{timedRec("A", t0), timedRec("B", t0.Add(time.Second))}
	sessions := SegmentSessions(recs)
	if len(sessions) != 1 {
		t.Fatalf("%d sessions", len(sessions))
	}
	if got := SegmentSessions(nil); got != nil {
		t.Error("empty input should give nil")
	}
}

func TestAutoLabelerAssignsAndRejects(t *testing.T) {
	joy := repeat([]string{"ARM", "MVNG", "MVNG"}, 20)
	sol := repeat([]string{"Q", "A", "V", "start_dosing", "target_mass"}, 10)
	al, err := NewAutoLabeler([][]string{joy, joy, sol, sol}, []string{"P4", "P4", "P1", "P1"})
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Date(2021, 10, 1, 9, 0, 0, 0, time.UTC)
	var recs []store.Record
	// Session 1: joystick-like.
	for i, name := range repeat([]string{"ARM", "MVNG", "MVNG"}, 8) {
		recs = append(recs, timedRec(name, t0.Add(time.Duration(i)*time.Second)))
	}
	// Session 2 (next day): solubility-like.
	t1 := t0.Add(24 * time.Hour)
	for i, name := range repeat([]string{"Q", "A", "V", "target_mass"}, 6) {
		recs = append(recs, timedRec(name, t1.Add(time.Duration(i)*time.Second)))
	}
	// Session 3: gibberish unlike either procedure.
	t2 := t1.Add(24 * time.Hour)
	for i, name := range repeat([]string{"OUTP", "BIAS", "HOME", "JLEN"}, 5) {
		recs = append(recs, timedRec(name, t2.Add(time.Duration(i)*time.Second)))
	}

	segments := al.Label(recs)
	if len(segments) != 3 {
		t.Fatalf("%d segments, want 3", len(segments))
	}
	if segments[0].Label != "P4" {
		t.Errorf("segment 1 labelled %q (sim %.2f), want P4", segments[0].Label, segments[0].Similarity)
	}
	if segments[1].Label != "P1" {
		t.Errorf("segment 2 labelled %q (sim %.2f), want P1", segments[1].Label, segments[1].Similarity)
	}
	if segments[2].Label != store.UnknownProcedure {
		t.Errorf("gibberish labelled %q (sim %.2f), want unknown", segments[2].Label, segments[2].Similarity)
	}
}

func TestNewAutoLabelerValidation(t *testing.T) {
	if _, err := NewAutoLabeler(nil, nil); err == nil {
		t.Error("empty training should fail")
	}
}
