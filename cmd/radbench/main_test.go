package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rad/internal/store"
	"rad/internal/tracedb"
)

// TestRadbenchSubsets exercises the CLI driver over quick experiment
// subsets (the full run is exercised by the bench suite and EXPERIMENTS.md),
// and -from over a store the middlebox collected live, whose run labels
// are whatever radtrace -run gave them, beside the run-N labels of a
// generated campaign.
func TestRadbenchSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a dataset")
	}
	live := filepath.Join(t.TempDir(), "mbstore")
	db, err := tracedb.Open(live, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	presses := []string{"INIT", "MVNG", "MVNG", "HOME"}
	for _, run := range []string{"run-2", "vfy"} {
		for i := 0; i < 40; i++ {
			r := store.Record{Device: "C9", Name: presses[i%len(presses)], Procedure: "P4", Run: run, Mode: "REMOTE"}
			if err := db.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scale", "0.02", "-only", "fig5a"},
		{"-scale", "0.02", "-only", "fig5b,fig6,table1"},
		{"-scale", "0.02", "-only", "fig7c,fig7d"},
		{"-scale", "0.02", "-only", "rules,autolabel,specmine"},
		{"-from", live, "-only", "fig5a,fig5b,fig6"},
		{"-from", live, "-only", "rules,autolabel,specmine"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
	}
}

// TestRadbenchHelpNamesTheDefaults pins -only's help text, which lists the
// experiments radbench runs without -only.
func TestRadbenchHelpNamesTheDefaults(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "help.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"})
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	help, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	const want = "comma-separated experiment subset (default: fig4,fig5a,fig5b,fig6,table1,fig7a,fig7b,fig7c,fig7d)\n"
	if !strings.Contains(string(help), want) {
		t.Errorf("radbench -h lacks %q:\n%s", want, help)
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
		{"-from", missing, "-only", "autolabel"},
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
