package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"rad/internal/analysis/stats"
	"rad/internal/device"
	"rad/internal/procedure"
	"rad/internal/rad"
)

// This file renders experiment results as text in the shape of the paper's
// tables and figures, for cmd/radbench and EXPERIMENTS.md.

// RenderFig4 formats the response-time experiment as one row of box-plot
// statistics per (mode, sequence).
func RenderFig4(res Fig4Result) string {
	var b strings.Builder
	b.WriteString("Fig. 4 — N9 ARM response time (ms) per button-press sequence\n")
	fmt.Fprintf(&b, "%-8s %-4s %8s %8s %8s %8s %8s %9s\n",
		"mode", "seq", "Q1", "median", "Q3", "whisk-hi", "mean", "outliers")
	for _, mode := range res.Modes {
		for i, box := range mode.Boxes {
			fmt.Fprintf(&b, "%-8s %-4d %8.2f %8.2f %8.2f %8.2f %8.2f %9d\n",
				mode.Mode, i+1, box.Q1, box.Med, box.Q3, box.HiWhisker, box.Mean, len(box.Outliers))
		}
		fmt.Fprintf(&b, "%-8s overall mean: %.2f ms\n", mode.Mode, mode.Mean)
	}
	return b.String()
}

// RenderFig5a formats the command-wise distribution with per-device legend
// totals, in the paper's device order (device.Names).
func RenderFig5a(res Fig5aResult) string {
	var b strings.Builder
	b.WriteString("Fig. 5(a) — command-wise distribution of trace objects\n")
	fmt.Fprintf(&b, "total trace objects: %d\n", res.Total)
	b.WriteString("legend: ")
	for i, dev := range device.Names() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s (%d)", dev, res.DeviceTotals[dev])
	}
	b.WriteString("\n")
	maxCount := 0
	for _, cc := range res.Commands {
		if cc.Count > maxCount {
			maxCount = cc.Count
		}
	}
	curDev := ""
	for _, cc := range res.Commands {
		if cc.Device != curDev {
			curDev = cc.Device
			fmt.Fprintf(&b, "-- %s --\n", curDev)
		}
		name := cc.Name
		if cc.Readable != cc.Name {
			name = fmt.Sprintf("%s (%s)", cc.Name, cc.Readable)
		}
		fmt.Fprintf(&b, "  %-42s %8d %s\n", name, cc.Count, bar(cc.Count, maxCount, 30))
	}
	return b.String()
}

// RenderFig5b formats the top n-gram lists.
func RenderFig5b(tables []NGramTable) string {
	var b strings.Builder
	b.WriteString("Fig. 5(b) — top n-grams in RAD\n")
	for _, tbl := range tables {
		fmt.Fprintf(&b, "-- %d-grams --\n", tbl.N)
		for _, c := range tbl.Top {
			fmt.Fprintf(&b, "  %-60s %8d\n", c.Key(), c.Times)
		}
	}
	return b.String()
}

// RenderFig6 draws the runs' pairwise similarity matrix as a text
// heatmap, each row and column labelled by its run ID.
func RenderFig6(res Fig6Result) string {
	var b strings.Builder
	noun := "runs"
	if len(res.Runs) == 1 {
		noun = "run"
	}
	fmt.Fprintf(&b, "Fig. 6 — pairwise TF-IDF similarity of the %d supervised %s\n", len(res.Runs), noun)
	fmt.Fprintf(&b, "(%s; darker = more similar)\n    ", procedureRanges(res.Runs))
	for _, run := range res.Runs {
		fmt.Fprintf(&b, "%3d", run.ID)
	}
	b.WriteString("\n")
	for i, row := range res.Matrix {
		marker := " "
		if res.Runs[i].Anomalous {
			marker = "*"
		}
		fmt.Fprintf(&b, "%2d%s ", res.Runs[i].ID, marker)
		for _, v := range row {
			b.WriteString(" " + heatChar(v) + " ")
		}
		fmt.Fprintf(&b, "  %s %s\n", res.Runs[i].Procedure, res.Runs[i].Note)
	}
	b.WriteString("(* = anomalous run; scale: ' ' <0.5, '.' <0.65, ':' <0.8, 'o' <0.9, 'O' <0.97, '#' ≥0.97)\n")
	return b.String()
}

// procedureRanges names each stretch of consecutive run IDs that share a
// procedure, e.g. "0–11 Joystick/P4, 12–16 P1".
func procedureRanges(runs []rad.RunInfo) string {
	var parts []string
	for i := 0; i < len(runs); {
		j := i + 1
		for j < len(runs) && runs[j].Procedure == runs[i].Procedure && runs[j].ID == runs[j-1].ID+1 {
			j++
		}
		ids := strconv.Itoa(runs[i].ID)
		if j-i > 1 {
			ids += "–" + strconv.Itoa(runs[j-1].ID)
		}
		label := runs[i].Procedure
		if label == procedure.Joystick {
			label = "Joystick/" + label
		}
		parts = append(parts, ids+" "+label)
		i = j
	}
	return strings.Join(parts, ", ")
}

func heatChar(v float64) string {
	switch {
	case v >= 0.97:
		return "#"
	case v >= 0.9:
		return "O"
	case v >= 0.8:
		return "o"
	case v >= 0.65:
		return ":"
	case v >= 0.5:
		return "."
	default:
		return " "
	}
}

// RenderTableI formats Table I exactly as the paper lays it out.
func RenderTableI(rows []TableIRow) string {
	name := func(n int) string {
		switch n {
		case 2:
			return "Bigram"
		case 3:
			return "Trigram"
		case 4:
			return "Four-gram"
		default:
			return fmt.Sprintf("%d-gram", n)
		}
	}
	var b strings.Builder
	b.WriteString("Table I — perplexity + Jenks anomaly classification (5-fold CV)\n")
	fmt.Fprintf(&b, "%-28s", "Metrics")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12s", name(r.N))
	}
	b.WriteString("\n")
	writeRow := func(label string, f func(TableIRow) string) {
		fmt.Fprintf(&b, "%-28s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, "%12s", f(r))
		}
		b.WriteString("\n")
	}
	writeRow("Accuracy", func(r TableIRow) string { return fmt.Sprintf("%.0f%%", r.Accuracy*100) })
	writeRow("Weighted accuracy", func(r TableIRow) string { return fmt.Sprintf("%.2f%%", r.WeightedAccuracy*100) })
	writeRow("Precision", func(r TableIRow) string { return fmt.Sprintf("%.2f", r.Precision) })
	writeRow("Recall", func(r TableIRow) string { return fmt.Sprintf("%.2f", r.Recall) })
	writeRow("F1 score", func(r TableIRow) string { return fmt.Sprintf("%.2f", r.F1) })
	writeRow("True positives (negatives)", func(r TableIRow) string {
		return fmt.Sprintf("%d (%d)", r.Confusion.TP, r.Confusion.TN)
	})
	writeRow("False positives (negatives)", func(r TableIRow) string {
		return fmt.Sprintf("%d (%d)", r.Confusion.FP, r.Confusion.FN)
	})
	return b.String()
}

// RenderSeries draws labelled current series as sparklines with summary
// numbers, the text rendition of the Fig. 7 subplots.
func RenderSeries(title string, series []Series) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, s := range series {
		fmt.Fprintf(&b, "  %-12s %4d ticks (%5.2f s)  peak %6.3f  %s\n",
			s.Label, len(s.Current), s.Duration(), stats.MaxAbs(s.Current), sparkline(s.Current, 60))
	}
	return b.String()
}

// RenderFig7a formats the five-segment experiment: sparklines,
// repeatability, and the pairwise distinctness verdict.
func RenderFig7a(res Fig7aResult) string {
	var b strings.Builder
	b.WriteString(RenderSeries("Fig. 7(a) — UR3e joint-1 current per move_joints segment", res.Segments))
	b.WriteString("repeatability (Pearson r, run 1 vs run 2):")
	for i, r := range res.RepeatCorrelation {
		fmt.Fprintf(&b, "  L%d-L%d %.4f", i, i+1, r)
	}
	b.WriteString("\npairwise distinct (shape/duration/amplitude): ")
	all := true
	for i := range res.Distinct {
		for j := range res.Distinct[i] {
			if i != j && !res.Distinct[i][j] {
				all = false
			}
		}
	}
	fmt.Fprintf(&b, "%v\n", all)
	return b.String()
}

// RenderFig7b formats the per-solid vial transfers and their pairwise
// correlations.
func RenderFig7b(res Fig7bResult) string {
	var b strings.Builder
	b.WriteString(RenderSeries("Fig. 7(b) — vial-transfer current per solid (trajectory identical)", res.Solids))
	labels := make([]string, len(res.Solids))
	for i, s := range res.Solids {
		labels[i] = s.Label
	}
	b.WriteString(RenderCorrelationMatrix("pairwise Pearson r (paper: > 0.97):", labels, res.Correlations))
	return b.String()
}

// RenderFig7c formats the velocity sweep and its peak amplitudes.
func RenderFig7c(res Fig7cResult) string {
	return renderPeaks("Fig. 7(c) — current vs commanded velocity (same endpoints)", res.Velocities, res.PeakAmplitude)
}

// RenderFig7d formats the payload sweep and its peak amplitudes.
func RenderFig7d(res Fig7dResult) string {
	return renderPeaks("Fig. 7(d) — current vs payload weight (same trajectory)", res.Weights, res.PeakAmplitude)
}

// renderPeaks renders series under title, then one line of their peak
// amplitudes.
func renderPeaks(title string, series []Series, peaks []float64) string {
	var b strings.Builder
	b.WriteString(RenderSeries(title, series))
	b.WriteString("peak amplitude:")
	for i, s := range series {
		fmt.Fprintf(&b, "  %s %.3f", s.Label, peaks[i])
	}
	b.WriteString("\n")
	return b.String()
}

// RenderCorrelationMatrix formats a labelled correlation matrix.
func RenderCorrelationMatrix(title string, labels []string, m [][]float64) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-12s", "")
	for _, l := range labels {
		fmt.Fprintf(&b, "%10s", l)
	}
	b.WriteString("\n")
	for i, row := range m {
		fmt.Fprintf(&b, "%-12s", labels[i])
		for _, v := range row {
			fmt.Fprintf(&b, "%10.4f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sparkline downsamples xs to width characters using a small glyph ramp
// spanning [-max, +max].
func sparkline(xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return ""
	}
	ramp := []rune("_.-~^*")
	limit := stats.MaxAbs(xs)
	if limit == 0 {
		limit = 1
	}
	var out []rune
	step := float64(len(xs)) / float64(width)
	if step < 1 {
		step = 1
	}
	for pos := 0.0; int(pos) < len(xs) && len(out) < width; pos += step {
		v := xs[int(pos)]
		idx := int((v + limit) / (2 * limit) * float64(len(ramp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		out = append(out, ramp[idx])
	}
	return string(out)
}

// bar renders a proportional bar of at most width characters.
func bar(v, max, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := v * width / max
	if n == 0 {
		n = 1
	}
	return strings.Repeat("█", n)
}
