package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"rad/internal/device"
	"rad/internal/power"
	dataset "rad/internal/rad"
	"rad/internal/store"
)

// writeDescription generates RAD_Description.md — the analog of the paper's
// dataset documentation ("Robotic Arm Dataset (RAD) Features Description"):
// the record schema, the 52-command catalog with human-readable names, the
// supervised-run index with anomaly ground truth, and the 122-property power
// schema.
func writeDescription(path string, ds *dataset.Dataset, seed uint64, scale float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	p := func(format string, args ...any) { fmt.Fprintf(f, format+"\n", args...) }

	p("# Robotic Arm Dataset (RAD) — Features Description")
	p("")
	p("Synthetic reproduction generated %s (seed %d, scale %.2f).",
		time.Now().UTC().Format(time.RFC3339), seed, scale)
	p("")
	p("## Command dataset")
	p("")
	p("%d trace objects. One record per command instance, fields:", ds.Store.Len())
	p("")
	p("| Field | Meaning |")
	p("|---|---|")
	p("| seq | monotone sequence number assigned at logging |")
	p("| time / end_time | command start and completion as observed at the interception point |")
	p("| device | one of C9, UR3e, IKA, Tecan, Quantos |")
	p("| name | command type (one of the 52 below) |")
	p("| args | stringified arguments, '|'-separated in the CSV export |")
	p("| response | the device's return value |")
	p("| exception | error text when the command failed (collisions, bad arguments) |")
	p("| procedure | procedure type for supervised runs; %q otherwise |", store.UnknownProcedure)
	p("| run | supervised run identifier (run-0 … run-24) |")
	p("| mode | DIRECT or REMOTE interception |")
	p("")
	p("## The 52 command types")
	p("")
	counts := ds.Store.CountByCommand()
	p("| Device | Command | Readable name | Mutating | Count |")
	p("|---|---|---|---|---|")
	for _, spec := range device.Catalog() {
		p("| %s | `%s` | %s | %t | %d |",
			spec.Device, spec.Name, spec.Readable, spec.Mutating, counts[spec.Key()])
	}
	p("")
	p("## Supervised runs")
	p("")
	p("25 runs in Fig. 6 ID order; 3 anomalous (physical crashes).")
	p("")
	p("| ID | Run | Procedure | Commands | Anomalous | Note |")
	p("|---|---|---|---|---|---|")
	for _, run := range ds.Runs {
		p("| %d | %s | %s | %d | %t | %s |",
			run.ID, run.Run, run.Procedure, run.Commands, run.Anomalous, run.Note)
	}
	p("")
	p("## Power dataset")
	p("")
	p("UR3e telemetry at 25 Hz (one entry per 40 ms), captured for the")
	p("supervised P2 runs. Each entry holds %d properties:", len(power.PropertyNames()))
	p("")
	names := power.PropertyNames()
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		p("- `%s`", n)
	}
	return nil
}
