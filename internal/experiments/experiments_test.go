package experiments

import (
	"fmt"
	"strings"
	"testing"

	"rad/internal/device"
	"rad/internal/rad"
	"rad/internal/store"
)

// testDataset is the shared scaled-down campaign (generation dominates test
// time, so the command-analysis tests share one).
var testDataset *rad.Dataset

func dataset(t *testing.T) *rad.Dataset {
	t.Helper()
	if testDataset == nil {
		ds, err := rad.Generate(rad.Config{Seed: 11, Scale: 0.2})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		testDataset = ds
	}
	return testDataset
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time latency experiment")
	}
	res, err := Fig4ResponseTime(Fig4Config{Sequences: 2, CommandsPerSequence: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modes) != 3 {
		t.Fatalf("modes = %d", len(res.Modes))
	}
	byMode := map[string]Fig4Mode{}
	for _, m := range res.Modes {
		byMode[m.Mode] = m
		if len(m.Boxes) != 2 {
			t.Errorf("%s: %d boxes", m.Mode, len(m.Boxes))
		}
	}
	direct, remote, cloud := byMode[ModeDirect], byMode[ModeRemote], byMode[ModeCloud]
	// Paper shape: DIRECT < REMOTE (≈ +2 ms) << CLOUD (≈ 60 ms, an order of
	// magnitude above both).
	if !(direct.Mean < remote.Mean) {
		t.Errorf("DIRECT mean %v should be below REMOTE mean %v", direct.Mean, remote.Mean)
	}
	if remote.Mean-direct.Mean > 15 {
		t.Errorf("REMOTE overhead %v ms too large (paper: ≈2 ms)", remote.Mean-direct.Mean)
	}
	if cloud.Mean < 40 || cloud.Mean > 120 {
		t.Errorf("CLOUD mean %v ms, want ≈60", cloud.Mean)
	}
	if direct.Mean > 12 {
		t.Errorf("DIRECT mean %v ms, want < 10", direct.Mean)
	}
}

func TestFig5aDistribution(t *testing.T) {
	ds := dataset(t)
	res := Fig5aCommandDistribution(ds)
	if len(res.Commands) != 52 {
		t.Fatalf("%d command types, want 52", len(res.Commands))
	}
	if res.Total != ds.Store.Len() {
		t.Errorf("total %d != store %d", res.Total, ds.Store.Len())
	}
	// Legend ordering property: C9 must dominate, Quantos is smallest.
	if res.DeviceTotals["C9"] <= res.DeviceTotals["Tecan"] {
		t.Error("C9 should dominate the distribution")
	}
	if res.DeviceTotals["Quantos"] >= res.DeviceTotals["UR3e"] {
		t.Error("Quantos should be the least-traced device")
	}
	// MVNG is the C9's polling command and should lead its device.
	for _, cc := range res.Commands {
		if cc.Device == "C9" {
			if cc.Name != "MVNG" {
				t.Errorf("C9's most frequent command = %s, want MVNG", cc.Name)
			}
			break
		}
	}
}

// TestFig5aRenderDeterministic: the rendered Fig. 5(a) is one fixed text,
// whose legend lists the devices in the paper's order (device.Names), so a
// rerun or a reload of the same dataset prints the same bytes.
func TestFig5aRenderDeterministic(t *testing.T) {
	res := Fig5aCommandDistribution(dataset(t))
	var legend []string
	for _, dev := range device.Names() {
		legend = append(legend, fmt.Sprintf("%s (%d)", dev, res.DeviceTotals[dev]))
	}
	wantLegend := "legend: " + strings.Join(legend, ", ") + "\n"
	want := RenderFig5a(res)
	if !strings.Contains(want, wantLegend) {
		t.Fatalf("legend not in device.Names order, want %q in:\n%s", wantLegend, want)
	}
	for i := 0; i < 20; i++ {
		if got := RenderFig5a(res); got != want {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}

func TestFig5bTopNGrams(t *testing.T) {
	ds := dataset(t)
	tables := Fig5bTopNGrams(ds, nil, 10)
	if len(tables) != 4 {
		t.Fatalf("%d tables, want 4 (n=2..5)", len(tables))
	}
	for i, tbl := range tables {
		if tbl.N != i+2 {
			t.Errorf("table %d has n=%d", i, tbl.N)
		}
		if len(tbl.Top) != 10 {
			t.Errorf("n=%d has %d entries", tbl.N, len(tbl.Top))
		}
	}
	// The paper's top bigrams are joystick patterns: ARM_MVNG, MVNG_ARM,
	// MVNG_MVNG and friends must dominate.
	keys := make([]string, 0, 10)
	for _, c := range tables[0].Top {
		keys = append(keys, c.Key())
	}
	joined := strings.Join(keys, " ")
	for _, want := range []string{"MVNG_MVNG", "ARM_MVNG", "MVNG_ARM"} {
		if !strings.Contains(joined, want) {
			t.Errorf("top bigrams %v missing %s", keys, want)
		}
	}
	// Tecan's Q_Q polling pattern should rank among the top bigrams too.
	if !strings.Contains(joined, "Q_Q") {
		t.Errorf("top bigrams %v missing Q_Q", keys)
	}
}

func TestFig6BlockStructure(t *testing.T) {
	ds := dataset(t)
	res := Fig6SimilarityMatrix(ds)
	if len(res.Matrix) != 25 {
		t.Fatalf("matrix size %d", len(res.Matrix))
	}
	// Diagonal is 1.
	for i := range res.Matrix {
		if res.Matrix[i][i] < 0.999 {
			t.Errorf("diagonal [%d] = %v", i, res.Matrix[i][i])
		}
	}
	// Joystick block (0–11) is mutually similar.
	joyBlock := res.BlockMean(0, 11, 0, 11)
	if joyBlock < 0.85 {
		t.Errorf("joystick block mean %v, want high", joyBlock)
	}
	// Run 12 (P1 with joystick prefix) is more similar to the joystick runs
	// than to the other P1 runs — the paper's standout observation.
	simToJoy := res.BlockMean(12, 12, 0, 11)
	simToP1 := res.BlockMean(12, 12, 13, 16)
	if simToJoy <= simToP1 {
		t.Errorf("run 12: joystick similarity %v should exceed P1 similarity %v", simToJoy, simToP1)
	}
	// Remaining P1 runs (13–16) exhibit moderately high mutual similarity.
	if p1 := res.BlockMean(13, 16, 13, 16); p1 < 0.75 {
		t.Errorf("P1 block mean %v, want mostly above 0.8", p1)
	}
	// Truncated P2 pair 17–18: similar to each other, dissimilar to the
	// complete 19–20.
	pair := res.Matrix[17][18]
	cross := res.BlockMean(17, 18, 19, 20)
	if pair < 0.85 {
		t.Errorf("17–18 similarity %v, want > 0.9", pair)
	}
	if cross >= pair-0.1 {
		t.Errorf("17/18 vs 19/20 similarity %v should sit well below the 17–18 pair %v", cross, pair)
	}
	// P3 block 21–24 is tight (0.9–0.99) even though 22 is anomalous.
	if p3 := res.BlockMean(21, 24, 21, 24); p3 < 0.85 {
		t.Errorf("P3 block mean %v, want 0.9–0.99", p3)
	}
}

func TestTableIShape(t *testing.T) {
	ds := dataset(t)
	rows := TableIPerplexityIDS(ds, TableIConfig{})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Confusion.Total() != 25 {
			t.Errorf("n=%d classified %d runs", r.N, r.Confusion.Total())
		}
		// The headline claim: perfect recall for every model size.
		if r.Recall != 1.0 {
			t.Errorf("n=%d recall = %v, want 1.0 (FN=%d)", r.N, r.Recall, r.Confusion.FN)
		}
		if r.Confusion.TP != 3 {
			t.Errorf("n=%d TP = %d, want 3", r.N, r.Confusion.TP)
		}
	}
	// The bigram model's Jenks split separates the classes exactly: every
	// crash run lands above the break and no benign run does.
	if rows[0].Confusion.FP != 0 {
		t.Errorf("bigram Jenks split flagged %d benign runs (break %v)", rows[0].Confusion.FP, rows[0].BreakValue)
	}
	// The paper's ordering claims: trigram does not lose to bigram, and
	// performance slightly degrades between trigram and four-gram.
	if rows[1].Accuracy < rows[0].Accuracy {
		t.Errorf("trigram accuracy %v below bigram %v", rows[1].Accuracy, rows[0].Accuracy)
	}
	if rows[2].Accuracy > rows[1].Accuracy {
		t.Errorf("four-gram accuracy %v above trigram %v (paper: slight degradation)",
			rows[2].Accuracy, rows[1].Accuracy)
	}
}

func TestFig7aSegments(t *testing.T) {
	res, err := Fig7aSegments(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 5 {
		t.Fatalf("%d segments, want 5", len(res.Segments))
	}
	for i, r := range res.RepeatCorrelation {
		if r < 0.95 {
			t.Errorf("segment %d repeatability r=%v, want ≈1 (identical across iterations)", i, r)
		}
	}
	// Every pair of segments is distinguishable by its (shape, duration,
	// amplitude) signature, and more distinguishable than a re-run of the
	// same segment.
	for i := range res.Distinct {
		for j := range res.Distinct[i] {
			if i == j {
				continue
			}
			if !res.Distinct[i][j] {
				t.Errorf("segments %d and %d indistinguishable (r=%v)",
					i, j, res.CrossCorrelation[i][j])
			}
			if res.CrossCorrelation[i][j] > res.RepeatCorrelation[i] {
				t.Errorf("segments %d vs %d correlate (%v) above segment %d's own repeatability (%v)",
					i, j, res.CrossCorrelation[i][j], i, res.RepeatCorrelation[i])
			}
		}
	}
}

func TestFig7bSolidInvariance(t *testing.T) {
	res, err := Fig7bSolids(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solids) != 3 {
		t.Fatalf("%d solids", len(res.Solids))
	}
	for i := range res.Correlations {
		for j := range res.Correlations[i] {
			if res.Correlations[i][j] < 0.97 {
				t.Errorf("solids %s vs %s r=%v, paper reports > 0.97",
					res.Solids[i].Label, res.Solids[j].Label, res.Correlations[i][j])
			}
		}
	}
}

func TestFig7cVelocityScaling(t *testing.T) {
	res, err := Fig7cVelocities(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Velocities) != 3 {
		t.Fatalf("%d velocities", len(res.Velocities))
	}
	// Amplitude grows with velocity; the 100 mm/s trace is stretched.
	if !(res.PeakAmplitude[0] < res.PeakAmplitude[1] && res.PeakAmplitude[1] < res.PeakAmplitude[2]) {
		t.Errorf("amplitudes %v should grow with velocity", res.PeakAmplitude)
	}
	if len(res.Velocities[0].Current) <= len(res.Velocities[2].Current) {
		t.Errorf("100 mm/s trace (%d ticks) should be longer than 250 mm/s (%d)",
			len(res.Velocities[0].Current), len(res.Velocities[2].Current))
	}
}

func TestFig7dWeightScaling(t *testing.T) {
	res, err := Fig7dWeights(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weights) != 3 {
		t.Fatalf("%d weights", len(res.Weights))
	}
	if !(res.PeakAmplitude[0] < res.PeakAmplitude[1] && res.PeakAmplitude[1] < res.PeakAmplitude[2]) {
		t.Errorf("amplitudes %v should grow with payload", res.PeakAmplitude)
	}
}

// TestRenderFig6LabelsTheRunsItWasGiven renders Fig. 6 over datasets
// read back from a store collected live: the title counts the runs the
// matrix holds, the legend names each stretch of consecutive run IDs that
// share a procedure, and rows and columns carry the IDs FromRecords gave
// the runs, not their positions.
func TestRenderFig6LabelsTheRunsItWasGiven(t *testing.T) {
	const scale = "(* = anomalous run; scale: ' ' <0.5, '.' <0.65, ':' <0.8, 'o' <0.9, 'O' <0.97, '#' ≥0.97)\n"
	for _, tc := range []struct {
		name string
		recs []store.Record
		want string
	}{{
		name: "run-2 and vfy",
		recs: []store.Record{
			{Device: "C9", Name: "MVNG", Run: "run-2", Procedure: "P4"},
			{Device: "C9", Name: "HOME", Run: "vfy", Procedure: "P4"},
			{Device: "C9", Name: "MVNG", Run: "vfy", Procedure: "P4"},
		},
		want: "Fig. 6 — pairwise TF-IDF similarity of the 2 supervised runs\n" +
			"(2–3 Joystick/P4; darker = more similar)\n" +
			"      2  3\n" +
			" 2   #  .   P4 joystick session\n" +
			" 3   .  #   P4 \n" + scale,
	}, {
		name: "a P1 run between",
		recs: []store.Record{
			{Device: "C9", Name: "MVNG", Run: "run-2", Procedure: "P4"},
			{Device: "C9", Name: "HOME", Run: "vfy", Procedure: "P4"},
			{Device: "C9", Name: "MVNG", Run: "vfy", Procedure: "P4"},
			{Device: "Quantos", Name: "front_door", Run: "run-5", Procedure: "P1",
				Exception: "hardware fault: door crashed"},
		},
		want: "Fig. 6 — pairwise TF-IDF similarity of the 3 supervised runs\n" +
			"(2 Joystick/P4, 5 P1, 6 Joystick/P4; darker = more similar)\n" +
			"      2  5  6\n" +
			" 2   #     .   P4 joystick session\n" +
			" 5*     #      P1 \n" +
			" 6   .     #   P4 \n" + scale,
	}} {
		ds, err := rad.FromRecords(tc.recs)
		if err != nil {
			t.Fatal(err)
		}
		if got := RenderFig6(Fig6SimilarityMatrix(ds)); got != tc.want {
			t.Errorf("%s:\n got\n%s\n want\n%s", tc.name, got, tc.want)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	ds := dataset(t)
	checks := map[string]string{
		"fig5a":  RenderFig5a(Fig5aCommandDistribution(ds)),
		"fig5b":  RenderFig5b(Fig5bTopNGrams(ds, nil, 5)),
		"fig6":   RenderFig6(Fig6SimilarityMatrix(ds)),
		"table1": RenderTableI(TableIPerplexityIDS(ds, TableIConfig{})),
	}
	for name, out := range checks {
		if len(out) < 100 || !strings.Contains(out, "\n") {
			t.Errorf("%s renderer output suspiciously small:\n%s", name, out)
		}
	}
	series := []Series{{Label: "x", Current: []float64{0, 1, 0, -1, 0}}}
	if out := RenderSeries("t", series); !strings.Contains(out, "x") {
		t.Errorf("series renderer: %s", out)
	}
	if out := RenderCorrelationMatrix("t", []string{"a"}, [][]float64{{1}}); !strings.Contains(out, "1.0000") {
		t.Errorf("matrix renderer: %s", out)
	}
}
