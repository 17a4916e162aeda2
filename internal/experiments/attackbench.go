package experiments

import (
	"fmt"
	"strings"

	"rad/internal/attack"
	"rad/internal/ids"
	"rad/internal/procedure"
	"rad/internal/store"
)

// This file extends the paper's evaluation along its own future-work axis
// (§VII): benchmarking IDS against generated anomalous traces. It runs the
// standard attack suite (internal/attack) against the P2 workload and scores
// two detectors on every scenario: the paper's name-only perplexity IDS and
// the argument-aware variant the paper calls for ("our immediate goals are
// to bring command arguments into the fold").

// AttackBenchRow is one scenario's outcome.
type AttackBenchRow struct {
	Scenario string
	// Events is the number of attacker actions that actually fired.
	Events int
	// NameScore/ArgScore are the run perplexities under each detector, with
	// the corresponding thresholds.
	NameScore     float64
	NameThreshold float64
	NameFlagged   bool
	ArgScore      float64
	ArgThreshold  float64
	ArgFlagged    bool
}

// AttackBenchmark trains both detectors on benign P2 runs, executes the
// standard attack suite, and reports per-scenario detection.
func AttackBenchmark(seed uint64, order int) ([]AttackBenchRow, error) {
	if order <= 0 {
		order = 3
	}
	// Training corpus: benign P2 runs with varied seeds/solids/vials.
	trainRuns, err := benignP2Corpus(seed, 10)
	if err != nil {
		return nil, err
	}
	nameSeqs := make([][]string, len(trainRuns))
	for i, run := range trainRuns {
		nameSeqs[i] = ids.NameSequence(run)
	}
	nameDet, err := ids.TrainPerplexity(nameSeqs, order)
	if err != nil {
		return nil, err
	}
	argDet, err := ids.TrainArgAwarePerplexity(trainRuns, order, 0)
	if err != nil {
		return nil, err
	}

	var rows []AttackBenchRow
	for _, sc := range attack.StandardSuite(seed + 1000) {
		out, err := attack.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		nameScore := nameDet.Score(ids.NameSequence(out.Records))
		argScore := argDet.ScoreRecords(out.Records)
		rows = append(rows, AttackBenchRow{
			Scenario:      sc.Name,
			Events:        len(out.Events),
			NameScore:     nameScore,
			NameThreshold: nameDet.Threshold(),
			NameFlagged:   nameScore > nameDet.Threshold(),
			ArgScore:      argScore,
			ArgThreshold:  argDet.Threshold(),
			ArgFlagged:    argScore > argDet.Threshold(),
		})
	}
	return rows, nil
}

// benignP2Corpus produces n benign P2 record streams on fresh labs.
func benignP2Corpus(seed uint64, n int) ([][]store.Record, error) {
	solids := []string{"NABH4", "CSTI", "GENTISTIC"}
	out := make([][]store.Record, 0, n)
	for i := 0; i < n; i++ {
		vl, err := procedure.NewVirtualLab(procedure.VirtualLabConfig{Seed: seed + uint64(i)*13})
		if err != nil {
			return nil, err
		}
		run := fmt.Sprintf("train-%d", i)
		res := procedure.RunSolubilityN9UR(vl.Lab, procedure.Options{
			Run: run, Seed: seed + uint64(i)*7 + 1,
			Solid: solids[i%len(solids)], Vials: 1 + i%3,
		})
		recs := vl.Sink.ByRun(run)
		cerr := vl.Close()
		if res.Err != nil {
			return nil, fmt.Errorf("training run %d: %w", i, res.Err)
		}
		if cerr != nil {
			return nil, cerr
		}
		out = append(out, recs)
	}
	return out, nil
}

// RenderAttackBench formats the benchmark as a table.
func RenderAttackBench(rows []AttackBenchRow) string {
	var b strings.Builder
	b.WriteString("Attack benchmark — P2 workload, trigram perplexity IDS\n")
	b.WriteString("(name-only = the paper's §V-B detector; arg-aware = §VII's \"bring command arguments into the fold\")\n")
	fmt.Fprintf(&b, "%-18s %7s %12s %9s %12s %9s\n",
		"scenario", "events", "name-ppl", "flagged", "arg-ppl", "flagged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %7d %12.3f %9v %12.3f %9v\n",
			r.Scenario, r.Events, r.NameScore, r.NameFlagged, r.ArgScore, r.ArgFlagged)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "thresholds: name %.3f, arg-aware %.3f\n",
			rows[0].NameThreshold, rows[0].ArgThreshold)
	}
	return b.String()
}
