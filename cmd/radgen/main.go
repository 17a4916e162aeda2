// Command radgen synthesizes the Robotic Arm Dataset and writes it to disk:
// the command dataset as CSV and/or JSONL, the supervised-run index, and the
// power dataset of the supervised P2 runs as CSV.
//
// Usage:
//
//	radgen [-seed N] [-scale F] [-workers N] [-out DIR] [-format csv|jsonl|both] [-store DIR]
//
// Generation is sharded across -workers goroutines; the output is
// byte-identical for every worker count (see internal/rad's canonical
// ordering). With -store, the campaign is additionally ingested into a
// persistent tracedb directory, ready for radquery and radreplay without
// regeneration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"rad/internal/device"
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "csv" && *format != "jsonl" && *format != "both" {
		return fmt.Errorf("unknown format %q", *format)
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
		if err := writeCommands(filepath.Join(*out, "commands.csv"), records, store.NewCSVWriter); err != nil {
			return err
		}
	}
	if *format == "jsonl" || *format == "both" {
		if err := writeCommands(filepath.Join(*out, "commands.jsonl"), records, store.NewJSONLWriter); err != nil {
			return err
		}
	}
	if *storeDir != "" {
		if err := writeTraceDB(*storeDir, records); err != nil {
			return err
		}
		fmt.Printf("ingested %d trace objects into tracedb at %s\n", len(records), *storeDir)
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
	for _, dev := range device.Names() {
		fmt.Printf("  %-8s %7d\n", dev, byDev[dev])
	}
	fmt.Printf("supervised runs: %d (3 anomalous); power captures: %d P2 runs\n",
		len(ds.Runs), len(ds.PowerByRun))
	return nil
}

// ingestBatch is how many records radgen writes per tracedb AppendBatch,
// and so per on-disk block.
const ingestBatch = 4096

// writeTraceDB ingests the campaign into a persistent tracedb store, one
// ingestBatch-record block per AppendBatch.
func writeTraceDB(dir string, records []store.Record) error {
	db, err := tracedb.Open(dir, tracedb.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < len(records); i += ingestBatch {
		if err := db.AppendBatch(records[i:min(i+ingestBatch, len(records))]); err != nil {
			db.Close()
			return fmt.Errorf("ingest tracedb: %w", err)
		}
	}
	return db.Close()
}

// writeCommands writes records to a new file at path through the export
// writer newWriter wraps around it: store.NewCSVWriter or
// store.NewJSONLWriter.
func writeCommands[W interface {
	store.Sink
	Flush() error
}](path string, records []store.Record, newWriter func(io.Writer) W) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := newWriter(f)
	for _, r := range records {
		if err := w.Append(r); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
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
