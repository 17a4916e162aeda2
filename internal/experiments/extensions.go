package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rad/internal/analysis/ngram"
	"rad/internal/analysis/specmine"
	"rad/internal/ids"
	"rad/internal/procedure"
	"rad/internal/rad"
	"rad/internal/store"
)

// This file holds the IDS analyses the paper proposes beyond its tables:
// the middlebox rule engine run over a whole campaign, auto-labelling of
// the unknown-procedure bulk (§VII), and specification mining with program
// synthesis (§V's second use case). Each reads the dataset, so each runs
// on a generated campaign or on one read back from a store.

// RuleCount is how often one middlebox rule fired.
type RuleCount struct {
	Rule  string
	Count int
}

// RuleTally runs a fresh middlebox rule engine over every record of the
// campaign, in collection order, and counts the violations of each rule.
// Rows come in rule-name order.
func RuleTally(ds *rad.Dataset) []RuleCount {
	engine := ids.NewRuleEngine()
	byRule := make(map[string]int)
	for _, rec := range ds.Store.All() {
		for _, v := range engine.Check(rec) {
			byRule[v.Rule]++
		}
	}
	rows := make([]RuleCount, 0, len(byRule))
	for rule, n := range byRule {
		rows = append(rows, RuleCount{Rule: rule, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Rule < rows[j].Rule })
	return rows
}

// RenderRuleTally formats the rule tally, one line per rule.
func RenderRuleTally(rows []RuleCount) string {
	var b strings.Builder
	b.WriteString("Rule engine — middlebox rule violations over the whole campaign\n")
	if len(rows) == 0 {
		b.WriteString("  no violations (the campaign stays inside the restricted command set)\n")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %d\n", r.Rule, r.Count)
	}
	return b.String()
}

// LabelCount is the sessions that auto-labelling gave one label, and the
// commands those sessions hold.
type LabelCount struct {
	Label    string
	Sessions int
	Commands int
}

// AutoLabelResult summarizes auto-labelling of the unknown-procedure bulk.
type AutoLabelResult struct {
	// Records and Sessions are the unknown-procedure records and the
	// sessions they were segmented into.
	Records, Sessions int
	// Labels holds one row per assigned label, in label order.
	Labels []LabelCount
}

// AutoLabel answers §VII's "automatically generate labels": it segments
// the records whose procedure is unknown into sessions at idle gaps and
// labels each session with the procedure of the nearest supervised-run
// TF-IDF centroid, or store.UnknownProcedure when none is similar enough.
func AutoLabel(ds *rad.Dataset) (AutoLabelResult, error) {
	seqs, _ := ds.SupervisedSequences()
	labels := make([]string, len(ds.Runs))
	for i, run := range ds.Runs {
		labels[i] = run.Procedure
	}
	labeler, err := ids.NewAutoLabeler(seqs, labels)
	if err != nil {
		return AutoLabelResult{}, err
	}
	unknown := ds.Store.ByProcedure(store.UnknownProcedure)
	segments := labeler.Label(unknown)
	byLabel := make(map[string]*LabelCount)
	for _, seg := range segments {
		row, ok := byLabel[seg.Label]
		if !ok {
			row = &LabelCount{Label: seg.Label}
			byLabel[seg.Label] = row
		}
		row.Sessions++
		row.Commands += len(seg.Records)
	}
	res := AutoLabelResult{Records: len(unknown), Sessions: len(segments)}
	for _, row := range byLabel {
		res.Labels = append(res.Labels, *row)
	}
	sort.Slice(res.Labels, func(i, j int) bool { return res.Labels[i].Label < res.Labels[j].Label })
	return res, nil
}

// RenderAutoLabel formats the auto-labelling summary, one line per label.
func RenderAutoLabel(res AutoLabelResult) string {
	var b strings.Builder
	b.WriteString("Auto-labelling — unknown-procedure bulk, segmented into sessions and classified\n")
	fmt.Fprintf(&b, "%d unknown-procedure records segmented into %d sessions:\n", res.Records, res.Sessions)
	for _, r := range res.Labels {
		fmt.Fprintf(&b, "  %-20s %4d sessions %7d commands\n", r.Label, r.Sessions, r.Commands)
	}
	return b.String()
}

// synthesisPrefix is the command prefix the synthesis model continues.
var synthesisPrefix = []string{"__init__", "HOME"}

// SpecMineResult is what specification mining recovers from the benign P3
// runs, and what a trigram model of every supervised run synthesizes.
type SpecMineResult struct {
	// Runs is the number of benign P3 runs mined.
	Runs int
	// Blocks are the five repeated blocks covering the most commands across
	// those runs; each Element's Min holds its total repetitions.
	Blocks []specmine.Element
	// Merged is the runs' specs merged into one, when Shared reports that
	// the runs share one structure.
	Merged specmine.Spec
	Shared bool
	// Coverage is the share of the first run's commands inside its mined
	// loops.
	Coverage float64
	// Continuation is the model's most likely 12 commands after
	// synthesisPrefix.
	Continuation []string
}

// SpecMining recovers the loop structure of the benign crystal-solubility
// (P3) runs, §V's "deriving a high-level program specification from
// low-level commands", and synthesizes a plausible continuation from the
// command language of every supervised run.
func SpecMining(ds *rad.Dataset) SpecMineResult {
	seqs, _ := ds.SupervisedSequences()
	var res SpecMineResult
	var specs []specmine.Spec
	var p3 [][]string
	for i, run := range ds.Runs {
		if run.Procedure == procedure.P3 && !run.Anomalous {
			specs = append(specs, specmine.Mine(seqs[i]))
			p3 = append(p3, seqs[i])
		}
	}
	res.Runs = len(p3)
	res.Blocks = specmine.TopBlocks(p3, 5)
	res.Merged, res.Shared = specmine.Merge(specs)
	if len(p3) > 0 {
		res.Coverage = specmine.Coverage(p3[0], specs[0])
	}
	lm := ngram.Train(seqs, 3, DefaultAlpha)
	res.Continuation = lm.MostLikely(synthesisPrefix, 12)[len(synthesisPrefix):]
	return res
}

// RenderSpecMining formats the mined blocks, the structure verdict, the
// first run's loop coverage and the synthesized continuation.
func RenderSpecMining(res SpecMineResult) string {
	var b strings.Builder
	b.WriteString("Specification mining — loop structure of the benign P3 runs\n")
	b.WriteString("most-covering repeated blocks across benign P3 runs:\n")
	for _, e := range res.Blocks {
		fmt.Fprintf(&b, "  ×%-4d { %s }\n", e.Min, strings.Join(e.Block, " "))
	}
	if res.Shared {
		fmt.Fprintf(&b, "runs share one structure; merged spec has %d elements\n", len(res.Merged))
	} else {
		b.WriteString("runs differ structurally (loop counts vary per solid); per-run specs mined\n")
	}
	if res.Runs > 0 {
		fmt.Fprintf(&b, "loop coverage of first P3 run: %.0f%%\n", res.Coverage*100)
	}
	b.WriteString("\nProgram synthesis — trigram LM over the supervised runs\n")
	fmt.Fprintf(&b, "most likely continuation of [%s]: %s\n",
		strings.Join(synthesisPrefix, " "), strings.Join(res.Continuation, " "))
	return b.String()
}
