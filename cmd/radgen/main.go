// Command radgen synthesizes the Robotic Arm Dataset and writes it to disk:
// the command dataset as CSV and/or JSONL, the supervised-run index, and the
// power dataset of the supervised P2 runs as CSV.
//
// Usage:
//
//	radgen [-seed N] [-scale F] [-workers N] [-out DIR] [-format csv|jsonl|both] [-store DIR] [-dlq DIR]
//
// Generation is sharded across -workers goroutines; the output is
// byte-identical for every worker count (see internal/rad's canonical
// ordering). With -store, the campaign is additionally ingested into a
// persistent tracedb directory, ready for radquery and radreplay without
// regeneration; -dlq additionally folds a middlebox dead-letter directory
// (batches spilled when the trace sinks failed) into that store.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"rad/internal/power"
	dataset "rad/internal/rad"
	"rad/internal/store"
	"rad/internal/tracedb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "radgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("radgen", flag.ContinueOnError)
	seed := fs.Uint64("seed", 11, "campaign seed")
	scale := fs.Float64("scale", 1.0, "unsupervised-bulk scale (1.0 = full 128,785 objects)")
	workers := fs.Int("workers", 0, "generation worker goroutines (0 = GOMAXPROCS)")
	out := fs.String("out", "rad-dataset", "output directory")
	format := fs.String("format", "both", "command-dataset format: csv, jsonl, or both")
	storeDir := fs.String("store", "", "also ingest the campaign into this tracedb directory")
	dlqDir := fs.String("dlq", "", "dead-letter directory to re-ingest into -store (spills from a crashed or fault-injected middlebox)")
	compact := fs.Bool("compact", false, "compact the -store after ingest: merge small flush blocks into dense segments with tight indexes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "jsonl" && *format != "both" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *dlqDir != "" && *storeDir == "" {
		return fmt.Errorf("-dlq requires -store (dead letters re-ingest into the tracedb)")
	}

	fmt.Printf("generating RAD (seed=%d scale=%.2f workers=%d)...\n", *seed, *scale, *workers)
	ds, err := dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale, Workers: *workers})
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	records := ds.Store.All()
	if *format == "csv" || *format == "both" {
		if err := writeCommandCSV(filepath.Join(*out, "commands.csv"), records); err != nil {
			return err
		}
	}
	if *format == "jsonl" || *format == "both" {
		if err := writeCommandJSONL(filepath.Join(*out, "commands.jsonl"), records); err != nil {
			return err
		}
	}
	if *storeDir != "" {
		reingested, cs, err := writeTraceDB(*storeDir, *dlqDir, records, *compact)
		if err != nil {
			return err
		}
		fmt.Printf("ingested %d trace objects into tracedb at %s\n", len(records), *storeDir)
		if *dlqDir != "" {
			fmt.Printf("re-ingested %d dead-lettered records from %s\n", reingested, *dlqDir)
		}
		if *compact {
			fmt.Printf("compacted: %d segments -> %d, %d blocks -> %d, %d bytes -> %d\n",
				cs.SegmentsIn, cs.SegmentsOut, cs.BlocksIn, cs.BlocksOut, cs.BytesIn, cs.BytesOut)
		}
	}
	if err := writeRunIndex(filepath.Join(*out, "runs.csv"), ds.Runs); err != nil {
		return err
	}
	if err := writePower(*out, ds); err != nil {
		return err
	}
	if err := writeDescription(filepath.Join(*out, "RAD_Description.md"), ds, *seed, *scale); err != nil {
		return err
	}

	byDev := ds.Store.CountByDevice()
	fmt.Printf("wrote %d trace objects to %s\n", len(records), *out)
	for dev, n := range byDev {
		fmt.Printf("  %-8s %7d\n", dev, n)
	}
	fmt.Printf("supervised runs: %d (3 anomalous); power captures: %d P2 runs\n",
		len(ds.Runs), len(ds.PowerByRun))
	return nil
}

// writeTraceDB ingests the campaign into a persistent tracedb store through
// the Batcher flush boundary, so each flush lands as one on-disk block. With
// a dead-letter directory it then folds the spilled records of a crashed or
// fault-injected middlebox into the same store, returning how many it
// recovered; with compact set it finishes with a lifecycle compaction pass.
func writeTraceDB(dir, dlqDir string, records []store.Record, compact bool) (int, tracedb.CompactStats, error) {
	var cs tracedb.CompactStats
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		return 0, cs, err
	}
	b := store.NewBatcher(db, 4096)
	for _, r := range records {
		if err := b.Append(r); err != nil {
			db.Close()
			return 0, cs, fmt.Errorf("ingest tracedb: %w", err)
		}
	}
	if err := b.Flush(); err != nil {
		db.Close()
		return 0, cs, fmt.Errorf("ingest tracedb: %w", err)
	}
	reingested := 0
	if dlqDir != "" {
		dlq, err := store.OpenDLQ(dlqDir)
		if err != nil {
			db.Close()
			return 0, cs, fmt.Errorf("open dlq: %w", err)
		}
		reingested, err = db.Reingest(dlq)
		if err != nil {
			db.Close()
			return 0, cs, fmt.Errorf("dlq re-ingest: %w", err)
		}
	}
	if compact {
		if cs, err = db.Compact(); err != nil {
			db.Close()
			return reingested, cs, fmt.Errorf("compact tracedb: %w", err)
		}
	}
	return reingested, cs, db.Close()
}

func writeCommandCSV(path string, records []store.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := store.NewCSVWriter(f)
	for _, r := range records {
		if err := w.Append(r); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return w.Flush()
}

func writeCommandJSONL(path string, records []store.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := store.NewJSONLWriter(f)
	for _, r := range records {
		if err := w.Append(r); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return w.Flush()
}

func writeRunIndex(path string, runs []dataset.RunInfo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "id,run,procedure,anomalous,commands,note"); err != nil {
		return err
	}
	for _, r := range runs {
		if _, err := fmt.Fprintf(f, "%d,%s,%s,%t,%d,%q\n",
			r.ID, r.Run, r.Procedure, r.Anomalous, r.Commands, r.Note); err != nil {
			return err
		}
	}
	return nil
}

// writePower writes one CSV per supervised P2 power capture with the full
// 122-property schema.
func writePower(dir string, ds *dataset.Dataset) error {
	names := power.PropertyNames()
	for run, samples := range ds.PowerByRun {
		path := filepath.Join(dir, "power-"+run+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprint(f, "time"); err != nil {
			f.Close()
			return err
		}
		for _, n := range names {
			if _, err := fmt.Fprint(f, ",", n); err != nil {
				f.Close()
				return err
			}
		}
		fmt.Fprintln(f)
		for _, s := range samples {
			if _, err := fmt.Fprint(f, s.Time.UnixNano()); err != nil {
				f.Close()
				return err
			}
			for _, v := range s.Values {
				if _, err := fmt.Fprint(f, ",", strconv.FormatFloat(v, 'g', 8, 64)); err != nil {
					f.Close()
					return err
				}
			}
			fmt.Fprintln(f)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
