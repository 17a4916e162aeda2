// Command radbench regenerates every table and figure in the paper's
// evaluation and prints them in the paper's layout.
//
// Usage:
//
//	radbench [-seed N] [-scale F] [-only fig4,fig5a,fig5b,fig6,table1,fig7a,fig7b,fig7c,fig7d,rq1,ablations,powerids,attacks]
//
// Without -only, radbench runs fig4 through fig7d; rq1, ablations,
// powerids and attacks run only when -only names them. fig4 runs in real
// time over loopback TCP (≈ a minute at full size); the remaining
// experiments run on a synthesized dataset in virtual time.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"rad/internal/experiments"
	dataset "rad/internal/rad"
	"rad/internal/store"
)

// experimentNames lists every name -only accepts.
var experimentNames = []string{"fig4", "fig5a", "fig5b", "fig6", "table1", "fig7a", "fig7b", "fig7c", "fig7d",
	"rq1", "ablations", "powerids", "attacks"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("radbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 11, "campaign seed (drives every random stream)")
	scale := fs.Float64("scale", 1.0, "unsupervised-bulk scale (1.0 = the full 128,785-object dataset)")
	fromFile := fs.String("from", "", "analyze an exported commands.jsonl instead of generating (fig5a/fig5b/fig6/table1/rq1/ablations)")
	only := fs.String("only", "", "comma-separated experiment subset (default: all)")
	fig4Seqs := fs.Int("fig4-sequences", 6, "fig4: joystick button-press sequences per mode")
	fig4Cmds := fs.Int("fig4-commands", 30, "fig4: ARM commands per sequence")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if !slices.Contains(experimentNames, name) {
				return fmt.Errorf("-only: unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ", "))
			}
			want[name] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	var ds *dataset.Dataset
	needDataset := sel("fig5a") || sel("fig5b") || sel("fig6") || sel("table1")
	if needDataset {
		var err error
		if *fromFile != "" {
			fmt.Printf("loading RAD from %s...\n", *fromFile)
			ds, err = loadDataset(*fromFile)
		} else {
			fmt.Printf("generating RAD (seed=%d scale=%.2f)...\n", *seed, *scale)
			ds, err = dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
		}
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		fmt.Printf("dataset: %d trace objects, %d supervised runs\n\n", ds.Store.Len(), len(ds.Runs))
	}

	if sel("fig4") {
		fmt.Println("running Fig. 4 latency experiment over loopback TCP (real time)...")
		res, err := experiments.Fig4ResponseTime(experiments.Fig4Config{
			Sequences: *fig4Seqs, CommandsPerSequence: *fig4Cmds, Seed: *seed,
		})
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		fmt.Println(experiments.RenderFig4(res))
	}
	if sel("fig5a") {
		fmt.Println(experiments.RenderFig5a(experiments.Fig5aCommandDistribution(ds)))
	}
	if sel("fig5b") {
		fmt.Println(experiments.RenderFig5b(experiments.Fig5bTopNGrams(ds, nil, 10)))
	}
	if sel("fig6") {
		fmt.Println(experiments.RenderFig6(experiments.Fig6SimilarityMatrix(ds)))
	}
	if sel("table1") {
		fmt.Println(experiments.RenderTableI(experiments.TableIPerplexityIDS(ds, experiments.TableIConfig{})))
	}
	if sel("fig7a") {
		res, err := experiments.Fig7aSegments(*seed)
		if err != nil {
			return fmt.Errorf("fig7a: %w", err)
		}
		fmt.Print(renderFig7a(res))
	}
	if sel("fig7b") {
		res, err := experiments.Fig7bSolids(*seed)
		if err != nil {
			return fmt.Errorf("fig7b: %w", err)
		}
		fmt.Print(renderFig7b(res))
	}
	if sel("fig7c") {
		res, err := experiments.Fig7cVelocities(*seed)
		if err != nil {
			return fmt.Errorf("fig7c: %w", err)
		}
		fmt.Print(renderFig7c(res))
	}
	if sel("fig7d") {
		res, err := experiments.Fig7dWeights(*seed)
		if err != nil {
			return fmt.Errorf("fig7d: %w", err)
		}
		fmt.Print(renderFig7d(res))
	}
	if sel("ablations") && len(want) > 0 {
		fmt.Println("running ablation studies (smoothing, Jenks space, streaming window)...")
		if ds == nil {
			var err error
			ds, err = dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
			if err != nil {
				return fmt.Errorf("generate dataset: %w", err)
			}
		}
		sm := experiments.AblationSmoothing(ds, nil)
		js := experiments.AblationJenksSpace(ds)
		wr, err := experiments.AblationStreamWindow(ds, nil)
		if err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		fmt.Println(experiments.RenderAblations(sm, js, wr))
	}
	if sel("rq1") && len(want) > 0 {
		if ds == nil {
			var err error
			ds, err = dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
			if err != nil {
				return fmt.Errorf("generate dataset: %w", err)
			}
		}
		res, err := experiments.RQ1Classification(ds)
		if err != nil {
			return fmt.Errorf("rq1: %w", err)
		}
		fmt.Println(experiments.RenderRQ1(res))
	}
	if sel("powerids") && len(want) > 0 {
		fmt.Println("running the power side-channel IDS benchmark (RQ3)...")
		rows, err := experiments.PowerIDSBenchmark(*seed)
		if err != nil {
			return fmt.Errorf("power ids: %w", err)
		}
		fmt.Println(experiments.RenderPowerIDS(rows))
	}
	if sel("attacks") && len(want) > 0 {
		fmt.Println("running the attack benchmark (6 attack families vs. the P2 workload)...")
		rows, err := experiments.AttackBenchmark(*seed, 3)
		if err != nil {
			return fmt.Errorf("attack benchmark: %w", err)
		}
		fmt.Println(experiments.RenderAttackBench(rows))
	}
	return nil
}

// loadDataset reads an exported commands.jsonl and rebuilds the Dataset view.
func loadDataset(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := store.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	return dataset.FromRecords(records)
}
