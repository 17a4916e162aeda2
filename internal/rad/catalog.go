package rad

import (
	"sort"

	"rad/internal/device"
)

// deviceLegendOrder sorts device names by descending trace count, matching
// the Fig. 5(a) legend.
func deviceLegendOrder(counts map[string]int) []string {
	names := device.Names()
	sort.SliceStable(names, func(i, j int) bool {
		return counts[names[i]] > counts[names[j]]
	})
	return names
}
