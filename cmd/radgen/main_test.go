package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rad/internal/store"
	"rad/internal/tracedb"
)

// TestRadgenWritesDataset runs the generator end to end into a temp
// directory and validates every artifact it writes.
func TestRadgenWritesDataset(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	if err := run([]string{"-seed", "3", "-scale", "0.01", "-out", dir, "-format", "both",
		"-store", storeDir}); err != nil {
		t.Fatal(err)
	}

	// The command dataset round-trips through both formats.
	csvFile, err := os.Open(filepath.Join(dir, "commands.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer csvFile.Close()
	fromCSV, err := store.ReadCSV(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	jsonlFile, err := os.Open(filepath.Join(dir, "commands.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jsonlFile.Close()
	fromJSONL, err := store.ReadJSONL(jsonlFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) == 0 || len(fromCSV) != len(fromJSONL) {
		t.Fatalf("csv %d records, jsonl %d", len(fromCSV), len(fromJSONL))
	}

	// The tracedb ingest holds the same campaign, queryable from disk.
	db, err := tracedb.Open(storeDir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != len(fromJSONL) {
		t.Errorf("tracedb has %d records, exports have %d", db.Len(), len(fromJSONL))
	}
	wantRuns := 25
	if got := len(db.Runs()); got != wantRuns {
		t.Errorf("tracedb indexes %d runs, want %d", got, wantRuns)
	}

	// The run index lists the 25 supervised runs.
	runsRaw, err := os.ReadFile(filepath.Join(dir, "runs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(runsRaw)), "\n")
	if len(lines) != 26 { // header + 25
		t.Errorf("runs.csv has %d lines, want 26", len(lines))
	}
	anomalous := 0
	for _, line := range lines[1:] {
		if strings.Contains(line, ",true,") {
			anomalous++
		}
	}
	if anomalous != 3 {
		t.Errorf("runs.csv marks %d anomalies, want 3", anomalous)
	}

	// One power CSV per supervised P2 run, with the 122-property header.
	matches, err := filepath.Glob(filepath.Join(dir, "power-run-*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 4 {
		t.Fatalf("%d power files, want 4 (P2 runs)", len(matches))
	}
	head, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(string(head), "\n", 2)[0]
	if got := strings.Count(header, ","); got != 122 {
		t.Errorf("power header has %d value columns, want 122", got)
	}

	// The features-description document covers the catalog, the runs, and
	// the power schema.
	descRaw, err := os.ReadFile(filepath.Join(dir, "RAD_Description.md"))
	if err != nil {
		t.Fatal(err)
	}
	desc := string(descRaw)
	for _, want := range []string{
		"Features Description", "52 command types", "Supervised runs",
		"`MVNG`", "`start_dosing`", "run-24", "`actual_current_0`",
	} {
		if !strings.Contains(desc, want) {
			t.Errorf("RAD_Description.md missing %q", want)
		}
	}
}

func TestRadgenRejectsBadFormat(t *testing.T) {
	if err := run([]string{"-format", "parquet", "-out", t.TempDir()}); err == nil {
		t.Error("bad format accepted")
	}
}

func TestRadgenDLQRequiresStore(t *testing.T) {
	if err := run([]string{"-dlq", t.TempDir()}); err == nil {
		t.Error("-dlq without -store accepted")
	}
}

// TestRadgenFoldsDLQIntoStore pre-seeds a dead-letter directory (as a
// crashed middlebox would leave it) and checks radgen -store -dlq folds
// the spilled records into the generated tracedb.
func TestRadgenFoldsDLQIntoStore(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")
	dlqDir := filepath.Join(dir, "dlq")
	dlq, err := store.OpenDLQ(dlqDir)
	if err != nil {
		t.Fatal(err)
	}
	spilled := []store.Record{
		{Device: "C9", Name: "MVNG", Mode: "REMOTE"},
		{Device: "IKA", Name: "IN_PV_4", Mode: "REMOTE"},
	}
	if err := dlq.Spill(spilled); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-seed", "3", "-scale", "0.01", "-out", dir, "-format", "csv",
		"-store", storeDir, "-dlq", dlqDir}); err != nil {
		t.Fatal(err)
	}

	if files, err := dlq.Pending(); err != nil || len(files) != 0 {
		t.Fatalf("dlq pending = %v, %v; want drained", files, err)
	}
	db, err := tracedb.Open(storeDir, tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	byDev := db.CountByDevice()
	for _, dev := range []string{"C9", "IKA"} {
		if byDev[dev] == 0 {
			t.Errorf("no %s records in the recovered store", dev)
		}
	}
}
