package store

import (
	"testing"

	"rad/internal/obs"
)

// TestObsStoreFailoverMetrics: primary refusals and DLQ spills surface as
// pull-based counters; the memstore gauge tracks occupancy.
func TestObsStoreFailoverMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	mem := NewMemStore()
	mem.Observe(reg)

	q, err := OpenDLQ(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	primary := &refusingSink{inner: mem}
	fo := NewFailoverSink(primary, q)
	fo.Observe(reg)

	rec := Record{Device: "C9", Name: "MVNG"}
	if err := fo.Append(rec); err != nil { // refused -> spilled
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fo.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	primary.healthy = true
	if err := fo.Append(rec); err != nil {
		t.Fatal(err)
	}

	counters := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if counters["rad_store_primary_errors_total"] != 3 {
		t.Errorf("primary errors = %d, want 3", counters["rad_store_primary_errors_total"])
	}
	if counters["rad_store_spilled_batches_total"] != 3 {
		t.Errorf("spilled batches = %d, want 3", counters["rad_store_spilled_batches_total"])
	}
	if counters["rad_store_spilled_records_total"] != 3 {
		t.Errorf("spilled records = %d, want 3", counters["rad_store_spilled_records_total"])
	}
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "rad_store_records" && g.Value != float64(mem.Len()) {
			t.Errorf("records gauge = %v, want %d", g.Value, mem.Len())
		}
	}
}
