package experiments

import (
	"fmt"
	"strings"

	"rad/internal/device"
	"rad/internal/ids"
)

// This file makes §VI's RQ3 quantitative: "can we use power monitoring to
// identify the same kinds of patterns identified via command tracing?" The
// benchmark enrols the joint-1 current signatures of known motions into the
// power detector, then replays benign repeats and manipulated variants
// (velocity changes, hidden payloads, unknown trajectories) and scores the
// detector's verdicts. None of the probes touch the command stream — the
// detector sees currents only, which is the side channel's whole point.

// PowerIDSRow is one probe's outcome.
type PowerIDSRow struct {
	Probe string
	// Expect is the ground truth: should the detector flag it?
	Expect bool
	Match  ids.Match
	// Correct reports Match.Anomalous == Expect.
	Correct bool
}

// PowerIDSBenchmark enrols the five Fig. 7(a) segments at the default
// velocity, then probes the detector.
func PowerIDSBenchmark(seed uint64) ([]PowerIDSRow, error) {
	det := ids.NewPowerDetector()

	// Enrolment: each L_i → L_{i+1} segment at the default velocity.
	enrol, err := segmentCurrents(seed, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: powerids enrolment: %w", err)
	}
	for i, cur := range enrol {
		det.Learn(fmt.Sprintf("L%d-L%d", i, i+1), cur)
	}

	var rows []PowerIDSRow
	score := func(probe string, expectAnomalous bool, cur []float64) error {
		m, err := det.Classify(cur)
		if err != nil {
			return err
		}
		rows = append(rows, PowerIDSRow{
			Probe: probe, Expect: expectAnomalous, Match: m,
			Correct: m.Anomalous == expectAnomalous,
		})
		return nil
	}

	// Benign repeats on a different day (fresh sensor noise).
	repeats, err := segmentCurrents(seed+991, 0, 0)
	if err != nil {
		return nil, err
	}
	for i, cur := range repeats {
		if err := score(fmt.Sprintf("repeat L%d-L%d", i, i+1), false, cur); err != nil {
			return nil, err
		}
	}

	// Velocity manipulation: the same segments driven at half and 1.5×
	// speed (a speed attack's physical effect — invisible to command names,
	// visible in the current's amplitude and duration).
	for _, vel := range []float64{100, 300} {
		fast, err := segmentCurrents(seed+5, vel, 0)
		if err != nil {
			return nil, err
		}
		if err := score(fmt.Sprintf("L0-L1 at %.0f mm/s", vel), true, fast[0]); err != nil {
			return nil, err
		}
	}

	// Hidden payload: the first segment carrying 1 kg nobody declared.
	loaded, err := segmentCurrents(seed+7, 0, 1.0)
	if err != nil {
		return nil, err
	}
	if err := score("L0-L1 with hidden 1 kg", true, loaded[0]); err != nil {
		return nil, err
	}

	// Unknown trajectory: a motion the detector never saw.
	unknown, err := strayCurrent(seed + 9)
	if err != nil {
		return nil, err
	}
	if err := score("unknown trajectory", true, unknown); err != nil {
		return nil, err
	}
	return rows, nil
}

// segmentCurrents executes the five L0..L5 segments and returns their
// joint-1 currents. velMMS == 0 uses the default velocity; payloadKg > 0 is
// gripped before the sweep.
func segmentCurrents(seed uint64, velMMS, payloadKg float64) ([][]float64, error) {
	vl, arm, err := powerLab(seed)
	if err != nil {
		return nil, err
	}
	defer vl.Close()
	if payloadKg > 0 {
		vl.Lab.Raw.UR3e.SetNextPayload(payloadKg)
		if _, err := arm.Exec(device.Command{Name: "close_gripper"}); err != nil {
			return nil, err
		}
	}
	if _, err := capture(vl, moveTo(arm, "L0", velMMS)); err != nil {
		return nil, err
	}
	var out [][]float64
	for i := 1; i <= 5; i++ {
		cur, err := capture(vl, moveTo(arm, fmt.Sprintf("L%d", i), velMMS))
		if err != nil {
			return nil, err
		}
		out = append(out, cur)
	}
	return out, nil
}

// strayCurrent records a trajectory outside the enrolled set.
func strayCurrent(seed uint64) ([]float64, error) {
	vl, arm, err := powerLab(seed)
	if err != nil {
		return nil, err
	}
	defer vl.Close()
	if _, err := capture(vl, moveTo(arm, "camera_station", 0)); err != nil {
		return nil, err
	}
	return capture(vl, func() error {
		if err := moveTo(arm, "quantos_tray", 0)(); err != nil {
			return err
		}
		return moveTo(arm, "above_rack", 0)()
	})
}

// RenderPowerIDS formats the benchmark.
func RenderPowerIDS(rows []PowerIDSRow) string {
	var b strings.Builder
	b.WriteString("Power side-channel IDS benchmark (RQ3) — joint-1 currents only\n")
	fmt.Fprintf(&b, "%-24s %8s %-10s %8s %8s %-9s %s\n",
		"probe", "expect", "best match", "r", "amp", "verdict", "reason")
	correct := 0
	for _, r := range rows {
		verdict := "benign"
		if r.Match.Anomalous {
			verdict = "ANOMALY"
		}
		expect := "benign"
		if r.Expect {
			expect = "anomaly"
		}
		if r.Correct {
			correct++
		}
		fmt.Fprintf(&b, "%-24s %8s %-10s %8.3f %8.2f %-9s %s\n",
			r.Probe, expect, r.Match.Label, r.Match.Correlation, r.Match.AmplitudeRatio,
			verdict, r.Match.Reason)
	}
	fmt.Fprintf(&b, "correct verdicts: %d/%d\n", correct, len(rows))
	return b.String()
}
