// Command radbench regenerates every table and figure in the paper's
// evaluation, and the IDS analyses that extend it, and prints them in the
// paper's layout.
//
// Usage:
//
//	radbench [-seed N] [-scale F] [-from STORE] [-only NAME,...]
//
// The experiments table below lists every name -only accepts, in the order
// radbench runs them, and says which run by default and which read the
// dataset; -only with an unknown name prints the list. fig4 runs in real
// time over loopback TCP (≈ a minute at full size); the rest run in
// virtual time, on a synthesized dataset when they read one. With -from,
// every experiment that reads the dataset reads it from a tracedb
// directory, such as one radgen -store wrote, instead of generating it.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"rad/internal/experiments"
	dataset "rad/internal/rad"
	"rad/internal/tracedb"
)

// experiment is one name -only accepts.
type experiment struct {
	name string
	// dataset: the experiment reads the campaign, generated or read back
	// with -from.
	dataset bool
	// byDefault: the experiment runs when -only is not given.
	byDefault bool
	// banner, when set, is printed before a run that takes a while.
	banner string
	// run computes the experiment and renders it.
	run func(env) (string, error)
}

// env is what an experiment reads.
type env struct {
	ds   *dataset.Dataset // nil unless a selected experiment reads it
	seed uint64
	fig4 experiments.Fig4Config
}

// experimentTable lists the experiments in the order radbench runs them.
var experimentTable = []experiment{
	{name: "fig4", byDefault: true, banner: "running Fig. 4 latency experiment over loopback TCP (real time)...",
		run: func(e env) (string, error) {
			return rendered(experiments.RenderFig4)(experiments.Fig4ResponseTime(e.fig4))
		}},
	{name: "fig5a", dataset: true, byDefault: true, run: func(e env) (string, error) {
		return experiments.RenderFig5a(experiments.Fig5aCommandDistribution(e.ds)), nil
	}},
	{name: "fig5b", dataset: true, byDefault: true, run: func(e env) (string, error) {
		return experiments.RenderFig5b(experiments.Fig5bTopNGrams(e.ds, nil, 10)), nil
	}},
	{name: "fig6", dataset: true, byDefault: true, run: func(e env) (string, error) {
		return experiments.RenderFig6(experiments.Fig6SimilarityMatrix(e.ds)), nil
	}},
	{name: "table1", dataset: true, byDefault: true, run: func(e env) (string, error) {
		return experiments.RenderTableI(experiments.TableIPerplexityIDS(e.ds, experiments.TableIConfig{})), nil
	}},
	{name: "fig7a", byDefault: true, run: func(e env) (string, error) {
		return rendered(experiments.RenderFig7a)(experiments.Fig7aSegments(e.seed))
	}},
	{name: "fig7b", byDefault: true, run: func(e env) (string, error) {
		return rendered(experiments.RenderFig7b)(experiments.Fig7bSolids(e.seed))
	}},
	{name: "fig7c", byDefault: true, run: func(e env) (string, error) {
		return rendered(experiments.RenderFig7c)(experiments.Fig7cVelocities(e.seed))
	}},
	{name: "fig7d", byDefault: true, run: func(e env) (string, error) {
		return rendered(experiments.RenderFig7d)(experiments.Fig7dWeights(e.seed))
	}},
	{name: "ablations", dataset: true, banner: "running ablation studies (smoothing, Jenks space, streaming window)...",
		run: func(e env) (string, error) {
			windows, err := experiments.AblationStreamWindow(e.ds, nil)
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations(experiments.AblationSmoothing(e.ds, nil),
				experiments.AblationJenksSpace(e.ds), windows), nil
		}},
	{name: "rq1", dataset: true, run: func(e env) (string, error) {
		return rendered(experiments.RenderRQ1)(experiments.RQ1Classification(e.ds))
	}},
	{name: "powerids", banner: "running the power side-channel IDS benchmark (RQ3)...",
		run: func(e env) (string, error) {
			return rendered(experiments.RenderPowerIDS)(experiments.PowerIDSBenchmark(e.seed))
		}},
	{name: "attacks", banner: "running the attack benchmark (6 attack families vs. the P2 workload)...",
		run: func(e env) (string, error) {
			return rendered(experiments.RenderAttackBench)(experiments.AttackBenchmark(e.seed, 3))
		}},
	{name: "rules", dataset: true, run: func(e env) (string, error) {
		return experiments.RenderRuleTally(experiments.RuleTally(e.ds)), nil
	}},
	{name: "autolabel", dataset: true, run: func(e env) (string, error) {
		return rendered(experiments.RenderAutoLabel)(experiments.AutoLabel(e.ds))
	}},
	{name: "specmine", dataset: true, run: func(e env) (string, error) {
		return experiments.RenderSpecMining(experiments.SpecMining(e.ds)), nil
	}},
}

// rendered adapts a renderer to a harness that can fail: the returned
// function renders the harness's result unless it failed.
func rendered[T any](render func(T) string) func(T, error) (string, error) {
	return func(res T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(res), nil
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var names, reads, defaults []string
	for _, x := range experimentTable {
		names = append(names, x.name)
		if x.dataset {
			reads = append(reads, x.name)
		}
		if x.byDefault {
			defaults = append(defaults, x.name)
		}
	}
	fs := flag.NewFlagSet("radbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 11, "campaign seed (drives every random stream)")
	scale := fs.Float64("scale", 1.0, "unsupervised-bulk scale (1.0 = the full 128,785-object dataset)")
	fromStore := fs.String("from", "", "read the dataset from this tracedb directory instead of generating it ("+strings.Join(reads, "/")+")")
	only := fs.String("only", "", "comma-separated experiment subset (default: "+strings.Join(defaults, ",")+")")
	fig4Seqs := fs.Int("fig4-sequences", 6, "fig4: joystick button-press sequences per mode")
	fig4Cmds := fs.Int("fig4-commands", 30, "fig4: ARM commands per sequence")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(names, name) {
				return fmt.Errorf("-only: unknown experiment %q (valid: %s)", name, strings.Join(names, ", "))
			}
			want[name] = true
		}
	}
	var selected []experiment
	readsDataset := false
	for _, x := range experimentTable {
		if want[x.name] || (len(want) == 0 && x.byDefault) {
			selected = append(selected, x)
			readsDataset = readsDataset || x.dataset
		}
	}

	e := env{seed: *seed, fig4: experiments.Fig4Config{
		Sequences: *fig4Seqs, CommandsPerSequence: *fig4Cmds, Seed: *seed,
	}}
	if readsDataset {
		var err error
		if *fromStore != "" {
			fmt.Printf("loading RAD from %s...\n", *fromStore)
			e.ds, err = loadDataset(*fromStore)
		} else {
			fmt.Printf("generating RAD (seed=%d scale=%.2f)...\n", *seed, *scale)
			e.ds, err = dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
		}
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		fmt.Printf("dataset: %d trace objects, %d supervised runs\n\n", e.ds.Store.Len(), len(e.ds.Runs))
	}
	for _, x := range selected {
		if x.banner != "" {
			fmt.Println(x.banner)
		}
		out, err := x.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		fmt.Println(out)
	}
	return nil
}

// loadDataset reads every record of the tracedb store in dir and rebuilds
// the Dataset view over them.
func loadDataset(dir string) (*dataset.Dataset, error) {
	records, err := tracedb.ReadAll(dir)
	if err != nil {
		return nil, err
	}
	return dataset.FromRecords(records)
}
