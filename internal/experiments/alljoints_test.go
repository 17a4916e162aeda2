package experiments

import (
	"testing"

	"rad/internal/analysis/stats"
	"rad/internal/power"
	"rad/internal/robot"
)

// TestAllJointsRepeatable checks the paper's closing §VI claim: "while the
// results shown here are for only one of the six UR3e joints, we observe
// similar correlations in the current profiles collected from the other
// five joints." Two executions of the same move must correlate strongly on
// every joint that actually moves.
func TestAllJointsRepeatable(t *testing.T) {
	captureJoints := func(seed uint64) [][]float64 {
		vl, arm, err := powerLab(seed)
		if err != nil {
			t.Fatal(err)
		}
		defer vl.Close()
		if _, err := capture(vl, moveTo(arm, "L0", 0)); err != nil {
			t.Fatal(err)
		}
		start := len(vl.Power())
		if err := moveTo(arm, "L1", 0)(); err != nil {
			t.Fatal(err)
		}
		samples := vl.Power()[start:]
		out := make([][]float64, robot.NumJoints)
		for j := 0; j < robot.NumJoints; j++ {
			out[j] = power.CurrentSeries(samples, j)
		}
		return out
	}
	a := captureJoints(1)
	b := captureJoints(2) // different noise seed, same trajectory

	from, _ := robot.Location("L0")
	to, _ := robot.Location("L1")
	for j := 0; j < robot.NumJoints; j++ {
		excursion := to[j] - from[j]
		if excursion < 0 {
			excursion = -excursion
		}
		n := min(len(a[j]), len(b[j]))
		if n == 0 {
			t.Fatalf("joint %d: empty capture", j+1)
		}
		r := stats.Pearson(a[j][:n], b[j][:n])
		// Joints with substantial excursions must repeat strongly; joints
		// that barely move carry noise-dominated currents (their signal is
		// below the sensor floor), so only a positive correlation from their
		// gravity/coupling terms is expected.
		switch {
		case excursion >= 0.3 && r < 0.9:
			t.Errorf("joint %d (excursion %.2f rad): repeatability r=%v, want > 0.9",
				j+1, excursion, r)
		case excursion > 0 && r < 0.2:
			t.Errorf("joint %d (excursion %.2f rad): repeatability r=%v, want positive",
				j+1, excursion, r)
		}
	}
}
