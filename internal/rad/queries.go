package rad

import (
	"sort"

	"rad/internal/device"
	"rad/internal/store"
)

// RunSequence returns the ordered command names of one supervised run — the
// "document" the §V analyses operate on.
func (d *Dataset) RunSequence(run string) []string {
	return d.Store.CommandSequence(func(r store.Record) bool { return r.Run == run })
}

// SupervisedSequences returns the 25 supervised command sequences and their
// anomaly ground truth, both in Fig. 6 ID order.
func (d *Dataset) SupervisedSequences() (seqs [][]string, anomalous []bool) {
	seqs = make([][]string, 0, len(d.Runs))
	anomalous = make([]bool, 0, len(d.Runs))
	for _, run := range d.Runs {
		seqs = append(seqs, d.RunSequence(run.Run))
		anomalous = append(anomalous, run.Anomalous)
	}
	return seqs, anomalous
}

// AllSequence returns the dataset-wide command-name sequence in collection
// order, used for the Fig. 5(b) n-gram distribution.
func (d *Dataset) AllSequence() []string {
	return d.Store.CommandSequence(nil)
}

// CommandCount pairs a command type with its trace-object count.
type CommandCount struct {
	Device   string
	Name     string
	Readable string
	Count    int
}

// CommandDistribution returns the per-command-type counts in Fig. 5(a)
// order: grouped by device (C9, Tecan, IKA, UR3e, Quantos appear in legend
// order inside the figure's catalog grouping), most-traced devices first,
// counts descending within each device.
func (d *Dataset) CommandDistribution() []CommandCount {
	byKey := d.Store.CountByCommand()
	var out []CommandCount
	for _, dev := range deviceLegendOrder(d.Store.CountByDevice()) {
		var devCmds []CommandCount
		for _, spec := range device.CommandsFor(dev) {
			devCmds = append(devCmds, CommandCount{
				Device: dev, Name: spec.Name, Readable: spec.Readable,
				Count: byKey[spec.Key()],
			})
		}
		sort.Slice(devCmds, func(i, j int) bool {
			if devCmds[i].Count != devCmds[j].Count {
				return devCmds[i].Count > devCmds[j].Count
			}
			return devCmds[i].Name < devCmds[j].Name
		})
		out = append(out, devCmds...)
	}
	return out
}
