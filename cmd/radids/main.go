// Command radids trains the paper's IDS prototypes on a synthesized RAD and
// reports how they fare: the batch perplexity classifier of §V-B (Table I's
// protocol), the streaming variant, the TF-IDF procedure classifier of §V-A
// (RQ1), and the middlebox rule engine.
//
// Usage:
//
//	radids [-seed N] [-scale F] [-order N] [-window N]
package main

import (
	"flag"
	"fmt"
	"os"

	"rad/internal/analysis/metrics"
	"rad/internal/analysis/ngram"
	"rad/internal/analysis/specmine"
	"rad/internal/experiments"
	"rad/internal/ids"
	"rad/internal/procedure"
	dataset "rad/internal/rad"
	"rad/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radids:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("radids", flag.ContinueOnError)
	seed := fs.Uint64("seed", 11, "campaign seed")
	scale := fs.Float64("scale", 0.2, "dataset scale (supervised runs are scale-invariant)")
	order := fs.Int("order", 3, "n-gram order for the perplexity IDS")
	window := fs.Int("window", 32, "streaming window size (commands)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Printf("generating RAD (seed=%d scale=%.2f)...\n", *seed, *scale)
	ds, err := dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	seqs, anomalous := ds.SupervisedSequences()

	// 1. Batch classification, the Table I protocol.
	fmt.Println("\n== batch perplexity IDS (5-fold CV + Jenks) ==")
	fmt.Print(experiments.RenderTableI(experiments.TableIPerplexityIDS(ds, experiments.TableIConfig{})))

	// 2. Streaming detection: train on the benign runs, replay every run
	// through the online detector.
	fmt.Printf("\n== streaming perplexity IDS (order %d, window %d) ==\n", *order, *window)
	var benign [][]string
	for i, seq := range seqs {
		if !anomalous[i] {
			benign = append(benign, seq)
		}
	}
	det, err := ids.TrainPerplexity(benign, *order)
	if err != nil {
		return err
	}
	fmt.Printf("threshold: %.3f\n", det.Threshold())
	var conf metrics.Confusion
	for i, seq := range seqs {
		stream := det.NewStream(*window)
		alerted := false
		alertAt := -1
		for pos, cmd := range seq {
			if _, alert := stream.Observe(cmd); alert && !alerted {
				alerted = true
				alertAt = pos
			}
		}
		switch {
		case alerted && anomalous[i]:
			conf.TP++
			fmt.Printf("  run %2d: ALERT at command %d/%d (true anomaly)\n", i, alertAt+1, len(seq))
		case alerted:
			conf.FP++
			fmt.Printf("  run %2d: alert at command %d/%d (false positive)\n", i, alertAt+1, len(seq))
		case anomalous[i]:
			conf.FN++
			fmt.Printf("  run %2d: MISSED anomaly\n", i)
		default:
			conf.TN++
		}
	}
	fmt.Printf("streaming: recall %.2f, precision %.2f, accuracy %.0f%%\n",
		conf.Recall(), conf.Precision(), conf.Accuracy()*100)

	// 3. Procedure identification (RQ1): leave-one-out nearest-centroid.
	fmt.Println("\n== TF-IDF procedure classifier (leave-one-out) ==")
	correct := 0
	for i := range seqs {
		var trainSeqs [][]string
		var trainLabels []string
		for j := range seqs {
			if j == i {
				continue
			}
			trainSeqs = append(trainSeqs, seqs[j])
			trainLabels = append(trainLabels, ds.Runs[j].Procedure)
		}
		clf, err := ids.TrainClassifier(trainSeqs, trainLabels)
		if err != nil {
			return err
		}
		got, sim := clf.Classify(seqs[i])
		ok := got == ds.Runs[i].Procedure
		if ok {
			correct++
		} else {
			fmt.Printf("  run %2d (%s): classified %s (sim %.2f) — %s\n",
				i, ds.Runs[i].Procedure, got, sim, ds.Runs[i].Note)
		}
	}
	fmt.Printf("procedure identification: %d/%d correct\n", correct, len(seqs))

	// 4. Rule engine over the whole campaign.
	fmt.Println("\n== middlebox rule engine ==")
	engine := ids.NewRuleEngine(0)
	byRule := make(map[string]int)
	for _, rec := range ds.Store.All() {
		for _, v := range engine.Check(rec) {
			byRule[v.Rule]++
		}
	}
	if len(byRule) == 0 {
		fmt.Println("  no violations (the campaign stays inside the restricted command set)")
	}
	for rule, n := range byRule {
		fmt.Printf("  %-22s %d\n", rule, n)
	}

	// 5. Auto-labelling the unsupervised bulk (§VII: "automatically generate
	// labels"): segment the unknown-procedure stream into sessions and
	// classify each against the supervised fingerprints.
	fmt.Println("\n== auto-labelling the unknown-procedure bulk ==")
	labels := make([]string, len(ds.Runs))
	for i, run := range ds.Runs {
		labels[i] = run.Procedure
	}
	labeler, err := ids.NewAutoLabeler(seqs, labels)
	if err != nil {
		return err
	}
	unknown := ds.Store.ByProcedure(store.UnknownProcedure)
	segments := labeler.Label(unknown)
	byLabel := make(map[string]int)
	commands := make(map[string]int)
	for _, seg := range segments {
		byLabel[seg.Label]++
		commands[seg.Label] += len(seg.Records)
	}
	fmt.Printf("%d unknown-procedure records segmented into %d sessions:\n", len(unknown), len(segments))
	for label, n := range byLabel {
		fmt.Printf("  %-20s %4d sessions %7d commands\n", label, n, commands[label])
	}

	// 6. Attack benchmark: the generated-anomaly suite (§VII) against the
	// name-only and argument-aware detectors.
	fmt.Println("\n== attack benchmark ==")
	bench, err := experiments.AttackBenchmark(*seed, *order)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderAttackBench(bench))

	// 7. Specification mining (§V's second use case): recover the loop
	// structure of the crystal-solubility runs and synthesize a plausible
	// continuation from the learned command language (program synthesis).
	fmt.Println("\n== specification mining (P3 runs) ==")
	var p3Specs []specmine.Spec
	var p3Seqs [][]string
	for i, run := range ds.Runs {
		if run.Procedure == procedure.P3 && !run.Anomalous {
			p3Specs = append(p3Specs, specmine.Mine(seqs[i], specmine.Options{}))
			p3Seqs = append(p3Seqs, seqs[i])
		}
	}
	blocks := specmine.TopBlocks(p3Seqs, specmine.Options{}, 5)
	fmt.Println("most-covering repeated blocks across benign P3 runs:")
	for _, b := range blocks {
		fmt.Printf("  ×%-4d { %s }\n", b.Min, joinWords(b.Block))
	}
	if merged, ok := specmine.Merge(p3Specs); ok {
		fmt.Printf("runs share one structure; merged spec has %d elements\n", len(merged))
	} else {
		fmt.Println("runs differ structurally (loop counts vary per solid); per-run specs mined")
	}
	if len(p3Seqs) > 0 {
		cov := specmine.Coverage(p3Seqs[0], p3Specs[0])
		fmt.Printf("loop coverage of first P3 run: %.0f%%\n", cov*100)
	}
	fmt.Println("\n== program synthesis (trigram LM) ==")
	lm := ngram.Train(seqs, 3, 0.1)
	synth := lm.MostLikely([]string{"__init__", "HOME"}, 12)
	fmt.Printf("most likely continuation of [__init__ HOME]: %s\n", joinWords(synth[2:]))
	return nil
}

func joinWords(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += x
	}
	return out
}
