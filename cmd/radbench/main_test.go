package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	// -from takes a tracedb directory that holds a store, for every
	// experiment that reads the dataset: a path without one is refused by
	// name, and nothing is created there.
	empty := t.TempDir()
	missing := filepath.Join(t.TempDir(), "nosuchdir")
	for _, args := range [][]string{
		{"-from", missing, "-only", "fig5a"},
		{"-from", missing, "-only", "rq1"},
		{"-from", missing, "-only", "ablations"},
		{"-from", empty, "-only", "table1"},
	} {
		err := run(append(args, "-scale", "0.02"))
		if err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%q: %v, want an error naming the path", args, err)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("refused -from created %s (stat: %v)", missing, err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Errorf("refused -from left %d files in %s", len(entries), empty)
	}
}
