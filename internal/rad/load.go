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
// "run-N" naming, procedure types from the labels, and anomaly ground
// truth from hardware-fault exceptions. A run-N gets the note of the
// campaign's run N only when it ran the same procedure and shares its
// anomaly flag, so a live run-5 recorded under P1 is not labelled a
// joystick session. A label that is not a run-N ID, such as one radtrace
// -run gave a live run, gets an ID after the highest numbered run, in
// sorted label order, and no note. Power captures are not part of the
// command dataset, so PowerByRun is empty.
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
	return fromStore(st), nil
}

// fromStore derives the run index from a populated store.
func fromStore(st *store.MemStore) *Dataset {
	ds := &Dataset{Store: st, Targets: map[string]int{}}
	for dev, n := range st.CountByDevice() {
		ds.Targets[dev] = n
	}
	type runAgg struct {
		id        int
		numbered  bool // the label is run-N with N the id
		run       string
		proc      string
		commands  int
		anomalous bool
	}
	byRun := make(map[string]*runAgg)
	var aggs []*runAgg
	for _, r := range st.All() {
		if r.Run == "" {
			continue
		}
		agg, ok := byRun[r.Run]
		if !ok {
			agg = &runAgg{run: r.Run, proc: r.Procedure}
			agg.id, agg.numbered = runID(r.Run)
			byRun[r.Run] = agg
			aggs = append(aggs, agg)
		}
		agg.commands++
		if r.Exception != "" && strings.Contains(r.Exception, "hardware fault") {
			agg.anomalous = true
		}
	}
	next := 0
	var free []*runAgg
	for _, agg := range aggs {
		if agg.numbered {
			next = max(next, agg.id+1)
		} else {
			free = append(free, agg)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i].run < free[j].run })
	for i, agg := range free {
		agg.id = next + i
	}
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].id < aggs[j].id })
	for _, agg := range aggs {
		info := RunInfo{
			ID: agg.id, Run: agg.run, Procedure: agg.proc,
			Anomalous: agg.anomalous, Commands: agg.commands,
		}
		if agg.numbered && agg.id < NumSupervisedRuns {
			if c := campaignRuns[agg.id]; c.kind == agg.proc && (c.crashAt > 0) == agg.anomalous {
				info.Note = c.note
			}
		}
		ds.Runs = append(ds.Runs, info)
	}
	return ds
}

// runID parses a "run-N" label, N a decimal with no sign or leading zero;
// ok is false for any other label.
func runID(run string) (id int, ok bool) {
	const prefix = "run-"
	if !strings.HasPrefix(run, prefix) {
		return 0, false
	}
	id, err := strconv.Atoi(run[len(prefix):])
	if err != nil || id < 0 || prefix+strconv.Itoa(id) != run {
		return 0, false
	}
	return id, true
}
