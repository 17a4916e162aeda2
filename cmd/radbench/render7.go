package main

import (
	"fmt"
	"strings"

	"rad/internal/experiments"
)

// renderFig7a formats the five-segment experiment: sparklines, repeatability,
// and the pairwise distinctness verdicts.
func renderFig7a(res experiments.Fig7aResult) string {
	var b strings.Builder
	b.WriteString(experiments.RenderSeries("Fig. 7(a) — UR3e joint-1 current per move_joints segment", res.Segments))
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
	fmt.Fprintf(&b, "%v\n\n", all)
	return b.String()
}

func renderFig7b(res experiments.Fig7bResult) string {
	var b strings.Builder
	b.WriteString(experiments.RenderSeries("Fig. 7(b) — vial-transfer current per solid (trajectory identical)", res.Solids))
	labels := make([]string, len(res.Solids))
	for i, s := range res.Solids {
		labels[i] = s.Label
	}
	b.WriteString(experiments.RenderCorrelationMatrix("pairwise Pearson r (paper: > 0.97):", labels, res.Correlations))
	b.WriteString("\n")
	return b.String()
}

func renderFig7c(res experiments.Fig7cResult) string {
	var b strings.Builder
	b.WriteString(experiments.RenderSeries("Fig. 7(c) — current vs commanded velocity (same endpoints)", res.Velocities))
	b.WriteString("peak amplitude:")
	for i, s := range res.Velocities {
		fmt.Fprintf(&b, "  %s %.3f", s.Label, res.PeakAmplitude[i])
	}
	b.WriteString("\n\n")
	return b.String()
}

func renderFig7d(res experiments.Fig7dResult) string {
	var b strings.Builder
	b.WriteString(experiments.RenderSeries("Fig. 7(d) — current vs payload weight (same trajectory)", res.Weights))
	b.WriteString("peak amplitude:")
	for i, s := range res.Weights {
		fmt.Fprintf(&b, "  %s %.3f", s.Label, res.PeakAmplitude[i])
	}
	b.WriteString("\n\n")
	return b.String()
}
