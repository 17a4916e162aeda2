package rad

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rad/internal/store"
)

// FromRecords rebuilds a Dataset view over stored trace records (e.g. read
// back from a tracedb store that radgen or the middlebox wrote),
// re-deriving the supervised-run index from the labels: run IDs from the
// "run-N" naming, procedure types from the labels, anomaly ground truth
// from hardware-fault exceptions, and each run's note from its ID. Power
// captures are not part of the command dataset, so PowerByRun is empty.
//
// This closes the generate-once/analyze-many loop: a stored campaign feeds
// the same Fig. 5/6/Table I harnesses as a freshly generated one.
func FromRecords(records []store.Record) (*Dataset, error) {
	st := store.NewMemStore()
	for _, r := range records {
		if err := st.Append(r); err != nil {
			return nil, fmt.Errorf("rad: load record: %w", err)
		}
	}
	return fromStore(st)
}

// fromStore derives the run index from a populated store.
func fromStore(st *store.MemStore) (*Dataset, error) {
	ds := &Dataset{Store: st, Targets: map[string]int{}}
	for dev, n := range st.CountByDevice() {
		ds.Targets[dev] = n
	}
	type runAgg struct {
		id        int
		run       string
		proc      string
		commands  int
		anomalous bool
	}
	byRun := make(map[string]*runAgg)
	for _, r := range st.All() {
		if r.Run == "" {
			continue
		}
		agg, ok := byRun[r.Run]
		if !ok {
			id, err := runID(r.Run)
			if err != nil {
				return nil, err
			}
			agg = &runAgg{id: id, run: r.Run, proc: r.Procedure}
			byRun[r.Run] = agg
		}
		agg.commands++
		if r.Exception != "" && strings.Contains(r.Exception, "hardware fault") {
			agg.anomalous = true
		}
	}
	aggs := make([]*runAgg, 0, len(byRun))
	for _, agg := range byRun {
		aggs = append(aggs, agg)
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].id < aggs[j].id })
	for _, agg := range aggs {
		ds.Runs = append(ds.Runs, RunInfo{
			ID: agg.id, Run: agg.run, Procedure: agg.proc,
			Anomalous: agg.anomalous, Commands: agg.commands,
			Note: runNote(agg.id),
		})
	}
	return ds, nil
}

// runID parses the numeric suffix of a "run-N" label.
func runID(run string) (int, error) {
	const prefix = "run-"
	if !strings.HasPrefix(run, prefix) {
		return 0, fmt.Errorf("rad: run label %q is not run-N", run)
	}
	id, err := strconv.Atoi(run[len(prefix):])
	if err != nil {
		return 0, fmt.Errorf("rad: run label %q: %w", run, err)
	}
	return id, nil
}
