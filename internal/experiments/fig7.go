package experiments

import (
	"fmt"
	"math"
	"strconv"

	"rad/internal/analysis/stats"
	"rad/internal/device"
	"rad/internal/middlebox"
	"rad/internal/power"
	"rad/internal/procedure"
	"rad/internal/robot"
)

// Joint1 is the joint whose current the paper plots in Fig. 7 ("joint 1",
// the base joint — index 0 here).
const Joint1 = 0

// Series is one labelled joint-current time series at 40 ms ticks.
type Series struct {
	Label   string
	Current []float64
}

// Duration returns the series length in seconds.
func (s Series) Duration() float64 { return float64(len(s.Current)) * power.SamplePeriod }

// powerLab builds a virtual lab with power telemetry and an initialized
// UR3e, parked at the home pose.
func powerLab(seed uint64) (*procedure.VirtualLab, device.Device, error) {
	vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{
		Seed: seed, Network: middlebox.NetworkProfile{}, WithPower: true,
	})
	if err != nil {
		return nil, nil, err
	}
	arm := vl.Lab.UR3e
	if _, err := arm.Exec(device.Command{Name: device.Init}); err != nil {
		vl.Close()
		return nil, nil, err
	}
	return vl, arm, nil
}

// capture runs fn and returns the joint-1 current recorded during it.
func capture(vl *procedure.VirtualLab, fn func() error) ([]float64, error) {
	start := len(vl.Power())
	if err := fn(); err != nil {
		return nil, err
	}
	return power.CurrentSeries(vl.Power()[start:], Joint1), nil
}

func moveTo(arm device.Device, loc string, velMMS float64) func() error {
	return func() error {
		args := []string{loc}
		if velMMS > 0 {
			args = append(args, strconv.FormatFloat(velMMS, 'f', -1, 64))
		}
		_, err := arm.Exec(device.Command{Name: "move_to_location", Args: args})
		return err
	}
}

// Fig7aResult holds the five per-segment signatures of Fig. 7(a) plus their
// run-to-run repeatability.
type Fig7aResult struct {
	// Segments are the five L_i→L_{i+1} joint-1 current signatures.
	Segments []Series
	// RepeatCorrelation[i] is the Pearson correlation between the first and
	// second execution of segment i (the paper observes the signatures are
	// "identical across multiple iterations").
	RepeatCorrelation []float64
	// CrossCorrelation[i][j] compares the (resampled) signatures of
	// segments i and j.
	CrossCorrelation [][]float64
	// Distinct[i][j] reports whether segments i and j are distinguishable:
	// a signature is the triple (shape, duration, amplitude), and two
	// segments are distinct when any of the three differs materially. This
	// is the Fig. 7(a) uniqueness claim made operational.
	Distinct [][]bool
}

// Fig7aSegments reproduces Fig. 7(a): the joint-1 current profiles of the
// five move commands L0→L1 … L4→L5 of procedure P2, executed twice to
// measure repeatability.
func Fig7aSegments(seed uint64) (Fig7aResult, error) {
	vl, arm, err := powerLab(seed)
	if err != nil {
		return Fig7aResult{}, err
	}
	defer vl.Close()

	waypoints := robot.SegmentWaypoints()
	runOnce := func() ([][]float64, error) {
		if _, err := capture(vl, moveTo(arm, waypoints[0], 0)); err != nil {
			return nil, err
		}
		var segs [][]float64
		for i := 1; i < len(waypoints); i++ {
			cur, err := capture(vl, moveTo(arm, waypoints[i], 0))
			if err != nil {
				return nil, err
			}
			segs = append(segs, cur)
		}
		return segs, nil
	}
	first, err := runOnce()
	if err != nil {
		return Fig7aResult{}, fmt.Errorf("experiments: fig7a first pass: %w", err)
	}
	second, err := runOnce()
	if err != nil {
		return Fig7aResult{}, fmt.Errorf("experiments: fig7a second pass: %w", err)
	}

	res := Fig7aResult{}
	for i, cur := range first {
		res.Segments = append(res.Segments, Series{
			Label:   fmt.Sprintf("L%d-L%d", i, i+1),
			Current: cur,
		})
		n := min(len(cur), len(second[i]))
		res.RepeatCorrelation = append(res.RepeatCorrelation, stats.Pearson(cur[:n], second[i][:n]))
	}
	res.CrossCorrelation = crossCorrelation(first)
	res.Distinct = distinctness(first, res.CrossCorrelation)
	return res, nil
}

// distinctness marks segment pairs distinguishable when their time-
// normalized shapes decorrelate (r < 0.95), their durations differ by more
// than 15%, or their peak amplitudes differ by more than 20%.
func distinctness(series [][]float64, corr [][]float64) [][]bool {
	out := make([][]bool, len(series))
	for i := range series {
		out[i] = make([]bool, len(series))
		for j := range series {
			if i == j {
				continue
			}
			durI, durJ := float64(len(series[i])), float64(len(series[j]))
			ampI, ampJ := stats.MaxAbs(series[i]), stats.MaxAbs(series[j])
			durDiff := math.Abs(durI-durJ) / math.Max(durI, durJ)
			ampDiff := math.Abs(ampI-ampJ) / math.Max(ampI, ampJ)
			out[i][j] = corr[i][j] < 0.95 || durDiff > 0.15 || ampDiff > 0.20
		}
	}
	return out
}

// crossCorrelation resamples the series to a common length and correlates
// all pairs.
func crossCorrelation(series [][]float64) [][]float64 {
	const n = 100
	rs := make([][]float64, len(series))
	for i, s := range series {
		rs[i] = stats.Resample(s, n)
	}
	out := make([][]float64, len(series))
	for i := range rs {
		out[i] = make([]float64, len(rs))
		for j := range rs {
			out[i][j] = stats.Pearson(rs[i], rs[j])
		}
	}
	return out
}

// Fig7bResult holds the per-solid transfer signatures and their pairwise
// correlations (the paper reports r > 0.97: the solid does not change the
// trajectory, hence not the current).
type Fig7bResult struct {
	Solids       []Series
	Correlations [][]float64
}

// Fig7bSolids reproduces Fig. 7(b): the vial-transfer portion of P2
// (storage rack → Quantos → home) executed once per solid. Selecting a
// different solid changes downstream chemistry, not the transfer trajectory
// or payload, so the current profiles coincide up to sensor noise.
func Fig7bSolids(seed uint64) (Fig7bResult, error) {
	solids := []string{"NABH4", "CSTI", "GENTISTIC"}
	var res Fig7bResult
	var raw [][]float64
	for i, solid := range solids {
		// A fresh lab per solid keeps the runs independent (different noise
		// streams), as rerunning the physical experiment would.
		vl, arm, err := powerLab(seed + uint64(i)*101)
		if err != nil {
			return Fig7bResult{}, err
		}
		cur, err := capture(vl, func() error {
			vl.Lab.Raw.UR3e.SetNextPayload(0.020) // the vial
			steps := [][]string{
				{"move_to_location", "above_rack"},
				{"move_to_location", "storage_rack"},
				{"close_gripper"},
				{"move_to_location", "above_rack"},
				{"move_to_location", "above_quantos"},
				{"move_to_location", "quantos_tray"},
				{"open_gripper"},
				{"move_to_location", "home"},
			}
			for _, step := range steps {
				if _, err := arm.Exec(device.Command{Name: step[0], Args: step[1:]}); err != nil {
					return err
				}
			}
			return nil
		})
		vl.Close()
		if err != nil {
			return Fig7bResult{}, fmt.Errorf("experiments: fig7b %s: %w", solid, err)
		}
		res.Solids = append(res.Solids, Series{Label: solid, Current: cur})
		raw = append(raw, cur)
	}
	// Same trajectory → same length; correlate directly at common length.
	n := len(raw[0])
	for _, r := range raw {
		n = min(n, len(r))
	}
	res.Correlations = make([][]float64, len(raw))
	for i := range raw {
		res.Correlations[i] = make([]float64, len(raw))
		for j := range raw {
			res.Correlations[i][j] = stats.Pearson(raw[i][:n], raw[j][:n])
		}
	}
	return res, nil
}

// Fig7cResult holds the per-velocity traces of P5.
type Fig7cResult struct {
	Velocities []Series
	// PeakAmplitude per velocity (grows with velocity).
	PeakAmplitude []float64
}

// Fig7cVelocities reproduces Fig. 7(c): procedure P5 moves the arm between
// the same two locations at 100, 200, and 250 mm/s. The profiles share
// their shape; amplitude scales with velocity and the slow trace stretches
// in time.
func Fig7cVelocities(seed uint64) (Fig7cResult, error) {
	var res Fig7cResult
	for _, vel := range []float64{100, 200, 250} {
		vl, arm, err := powerLab(seed)
		if err != nil {
			return Fig7cResult{}, err
		}
		if _, err := arm.Exec(device.Command{Name: "move_to_location", Args: []string{"L0"}}); err != nil {
			vl.Close()
			return Fig7cResult{}, err
		}
		cur, err := capture(vl, moveTo(arm, "L1", vel))
		vl.Close()
		if err != nil {
			return Fig7cResult{}, fmt.Errorf("experiments: fig7c %v mm/s: %w", vel, err)
		}
		res.Velocities = append(res.Velocities, Series{
			Label:   fmt.Sprintf("%.0f mm/s", vel),
			Current: cur,
		})
		res.PeakAmplitude = append(res.PeakAmplitude, stats.MaxAbs(cur))
	}
	return res, nil
}

// Fig7dResult holds the per-payload traces of P6.
type Fig7dResult struct {
	Weights []Series
	// PeakAmplitude per payload (grows with mass).
	PeakAmplitude []float64
}

// Fig7dWeights reproduces Fig. 7(d): procedure P6 carries 20 g, 500 g, and
// 1000 g payloads over the same path; heavier payloads draw more current.
func Fig7dWeights(seed uint64) (Fig7dResult, error) {
	var res Fig7dResult
	for _, kg := range []float64{0.020, 0.500, 1.000} {
		vl, arm, err := powerLab(seed)
		if err != nil {
			return Fig7dResult{}, err
		}
		// Position and grip outside the capture so the recorded window is
		// exactly the loaded carry, which is what Fig. 7(d) plots.
		if _, err := arm.Exec(device.Command{Name: "move_to_location", Args: []string{"storage_rack"}}); err != nil {
			vl.Close()
			return Fig7dResult{}, err
		}
		vl.Lab.Raw.UR3e.SetNextPayload(kg)
		if _, err := arm.Exec(device.Command{Name: "close_gripper"}); err != nil {
			vl.Close()
			return Fig7dResult{}, err
		}
		cur, err := capture(vl, moveTo(arm, "quantos_tray", 0))
		vl.Close()
		if err != nil {
			return Fig7dResult{}, fmt.Errorf("experiments: fig7d %v kg: %w", kg, err)
		}
		res.Weights = append(res.Weights, Series{
			Label:   fmt.Sprintf("%.0f g", kg*1000),
			Current: cur,
		})
		res.PeakAmplitude = append(res.PeakAmplitude, stats.MaxAbs(cur))
	}
	return res, nil
}
