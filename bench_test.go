package rad_test

// One benchmark per table and figure in the paper's evaluation (§III–§VI),
// plus ablation benchmarks for the design choices DESIGN.md calls out
// (wire framing, n-gram order, transport). Run:
//
//	go test -bench=. -benchmem
//
// The figure/table benchmarks exercise the same harnesses cmd/radbench uses
// to regenerate the paper's results; the dataset-bound ones share one
// generated campaign per process.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rad"
)

var (
	benchOnce sync.Once
	benchDS   *rad.Dataset
	benchErr  error
)

func benchDataset(b *testing.B) *rad.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = rad.GenerateDataset(rad.GenerateConfig{Seed: 11, Scale: 0.2})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

// BenchmarkFig4ResponseTime measures the Fig. 4 experiment: N9 ARM response
// time through a live loopback middlebox per deployment mode.
func BenchmarkFig4ResponseTime(b *testing.B) {
	for _, mode := range []string{"DIRECT", "REMOTE", "CLOUD"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rad.Fig4ResponseTime(rad.Fig4Config{
					Sequences: 1, CommandsPerSequence: 5, Seed: 1, Modes: []string{mode},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Modes) != 1 {
					b.Fatal("missing mode result")
				}
			}
		})
	}
}

// BenchmarkFig5aCommandDistribution regenerates the command-wise
// distribution of trace objects.
func BenchmarkFig5aCommandDistribution(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rad.Fig5aCommandDistribution(ds)
		if len(res.Commands) != 52 {
			b.Fatal("bad distribution")
		}
	}
}

// BenchmarkFig5bTopNGrams regenerates the top-10 n-gram lists for n=2..5.
func BenchmarkFig5bTopNGrams(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := rad.Fig5bTopNGrams(ds, nil, 10)
		if len(tables) != 4 {
			b.Fatal("bad tables")
		}
	}
}

// BenchmarkFig6SimilarityMatrix regenerates the 25×25 TF-IDF similarity
// matrix over the supervised runs.
func BenchmarkFig6SimilarityMatrix(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rad.Fig6SimilarityMatrix(ds)
		if len(res.Matrix) != 25 {
			b.Fatal("bad matrix")
		}
	}
}

// BenchmarkTableIPerplexityIDS regenerates Table I: 5-fold CV, three model
// orders, Jenks classification.
func BenchmarkTableIPerplexityIDS(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := rad.TableIPerplexityIDS(ds, rad.TableIConfig{})
		if len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkFig7 regenerates the four §VI power-trace experiments.
func BenchmarkFig7(b *testing.B) {
	b.Run("a_segments", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rad.Fig7aSegments(3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("b_solids", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rad.Fig7bSolids(3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("c_velocities", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rad.Fig7cVelocities(3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("d_weights", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rad.Fig7dWeights(3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDatasetGeneration measures campaign synthesis throughput
// (commands traced end-to-end through the middlebox per second).
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := rad.GenerateDataset(rad.GenerateConfig{Seed: uint64(i) + 1, Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ds.Store.Len()), "commands/op")
	}
}

// BenchmarkGenerateParallel measures sharded campaign synthesis across
// worker counts. The canonical merge ordering makes every variant produce
// identical bytes, so the sub-benchmarks differ only in wall clock:
//
//	go test -bench=BenchmarkGenerateParallel -benchmem
func BenchmarkGenerateParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ds, err := rad.GenerateDataset(rad.GenerateConfig{
					Seed: 11, Scale: 0.05, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ds.Store.Len()), "commands/op")
			}
		})
	}
}

// BenchmarkNGramCountParallel measures the Fig. 5(b) counting kernel across
// worker counts on the shared benchmark corpus.
func BenchmarkNGramCountParallel(b *testing.B) {
	ds := benchDataset(b)
	seq := ds.AllSequence()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				top := rad.TopNGramsParallel([][]string{seq}, 3, 10, workers)
				if len(top) != 10 {
					b.Fatal("bad top-k")
				}
			}
		})
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

// BenchmarkAblationNGramOrder measures perplexity scoring cost by model
// order, the knob Table I sweeps.
func BenchmarkAblationNGramOrder(b *testing.B) {
	ds := benchDataset(b)
	seqs, _ := dsSequences(ds)
	for _, n := range []int{2, 3, 4} {
		b.Run([]string{"", "", "bigram", "trigram", "fourgram"}[n], func(b *testing.B) {
			model := rad.TrainNGram(seqs[:20], n, 0.1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, seq := range seqs[20:] {
					_ = model.Perplexity(seq)
				}
			}
		})
	}
}

func dsSequences(ds *rad.Dataset) ([][]string, []bool) {
	return ds.SupervisedSequences()
}

// BenchmarkAblationTransport compares the in-process transport against real
// TCP for one command round trip — the deployment choice between virtual
// campaign generation and the live middlebox.
func BenchmarkAblationTransport(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		vl, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer vl.Close()
		dev := vl.Lab.C9
		if _, err := dev.Exec(rad.Command{Name: "__init__"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dev.Exec(rad.Command{Name: "MVNG"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		clock := rad.RealClock{}
		lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer lab.Close()
		// Serve the virtual lab's core over real TCP with no emulated delay.
		srv := rad.NewMiddleboxServer(lab.Core, rad.NetworkProfile{}, 1)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		transport, err := rad.DialMiddlebox(addr)
		if err != nil {
			b.Fatal(err)
		}
		sess := rad.NewTracingSession(transport, clock, rad.TracingConfig{DefaultMode: rad.ModeRemote})
		defer sess.Close()
		dev, err := sess.Virtual(rad.DeviceC9)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dev.Exec(rad.Command{Name: "__init__"}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dev.Exec(rad.Command{Name: "MVNG"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamingIDS measures the per-command cost of the real-time
// perplexity detector — the latency budget an online deployment would add
// to every middlebox command.
func BenchmarkStreamingIDS(b *testing.B) {
	ds := benchDataset(b)
	seqs, anomalous := ds.SupervisedSequences()
	var benign [][]string
	for i, seq := range seqs {
		if !anomalous[i] {
			benign = append(benign, seq)
		}
	}
	det, err := rad.TrainPerplexityDetector(benign, 3)
	if err != nil {
		b.Fatal(err)
	}
	stream := det.NewStream(32)
	cmds := seqs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Observe(cmds[i%len(cmds)])
	}
}

// BenchmarkPowerModel measures the current-model evaluation rate (samples
// per second the simulated RTDE feed can sustain).
func BenchmarkPowerModel(b *testing.B) {
	vl, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: 1, WithPower: true})
	if err != nil {
		b.Fatal(err)
	}
	defer vl.Close()
	arm := vl.Lab.UR3e
	if _, err := arm.Exec(rad.Command{Name: "__init__"}); err != nil {
		b.Fatal(err)
	}
	locs := []string{"L0", "L1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arm.Exec(rad.Command{Name: "move_to_location", Args: []string{locs[i%2]}}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(vl.Lab.Monitor.Len())/float64(b.N), "samples/op")
	_ = time.Now
}
