// Specification mining: §V's second teased use case — "deriving a high-level
// program specification from low-level commands" — end to end. Run the
// crystal-solubility screen three times with different loop counts, mine
// each trace's loop structure, merge the per-run specifications into one
// with widened repetition bounds, and print the recovered pseudocode next
// to the procedure's actual shape.
package main

import (
	"fmt"
	"log"
	"strings"

	"rad"
)

func main() {
	// Trace three P3 runs with different vial counts (the real screens vary
	// per solid and sample set).
	var specs []rad.Spec
	var seqs [][]string
	for i, vials := range []int{2, 3, 4} {
		lab, err := rad.NewVirtualLab(rad.VirtualLabConfig{Seed: uint64(50 + i)})
		if err != nil {
			log.Fatal(err)
		}
		res := rad.RunCrystalSolubility(lab.Lab, rad.ProcedureOptions{
			Run: "mine", Seed: 333, Vials: vials, // same per-run seed: same structure
		})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		seq := lab.Sink.CommandSequence(nil)
		seqs = append(seqs, seq)
		specs = append(specs, rad.MineSpec(seq))
		fmt.Printf("run %d: %d vials, %d commands, spec of %d elements, loop coverage %.0f%%\n",
			i, vials, len(seq), len(specs[i]), rad.SpecCoverage(seq, specs[i])*100)
		_ = lab.Close()
	}

	// The corpus-level building blocks: the repeated blocks that cover the
	// most commands across the runs.
	fmt.Println("\nmost-covering repeated blocks across the runs:")
	for _, b := range rad.TopSpecBlocks(seqs, 5) {
		fmt.Printf("  ×%-4d { %s }\n", b.Min, strings.Join(b.Block, " "))
	}

	// Merging identical-structure runs widens the loop bounds into ranges;
	// runs with different vial counts differ structurally (the vial loop
	// repeats a different number of times), which Merge reports honestly.
	if merged, ok := rad.MergeSpecs(specs); ok {
		fmt.Println("\nmerged specification:")
		fmt.Println(merged.String())
	} else {
		fmt.Println("\nruns differ structurally (different vial counts); first run's spec:")
		fmt.Println(specs[0].String())
	}
}
