package main

import "testing"

// TestRadbenchSubsets exercises the CLI driver over quick experiment
// subsets (the full run is exercised by the bench suite and EXPERIMENTS.md).
func TestRadbenchSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset")
	}
	for _, only := range []string{"fig5a", "fig5b,fig6,table1", "fig7c,fig7d"} {
		if err := run([]string{"-scale", "0.02", "-only", only}); err != nil {
			t.Fatalf("-only %s: %v", only, err)
		}
	}
}

func TestRadbenchRejectsBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-only", "fig9"},
		{"-only", "fig5a,table-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
