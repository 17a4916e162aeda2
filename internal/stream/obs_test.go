package stream

import (
	"strings"
	"testing"

	"rad/internal/obs"
	"rad/internal/store"
)

// TestObsStreamBrokerMetrics: lifetime publish/deliver/drop totals survive
// subscriber churn, and per-subscriber child metrics appear at Subscribe
// and vanish at Close.
func TestObsStreamBrokerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker()
	b.Observe(reg)

	sub := b.Subscribe(SubOptions{Name: "tail-1", Buffer: 4, Policy: DropOldest})
	for i := 0; i < 10; i++ {
		b.PublishBatch([]store.Record{{Seq: uint64(i), Device: "C9", Name: "MVNG"}})
	}
	// Ring of 4 absorbed 10 events: 6 dropped, 4 drainable.
	for {
		if _, ok := sub.TryRecv(); !ok {
			break
		}
	}

	counters := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if c.Labels["id"] == "" {
			counters[c.Name] = c.Value
		}
	}
	if counters["rad_stream_published_total"] != 10 {
		t.Errorf("published = %d, want 10", counters["rad_stream_published_total"])
	}
	if counters["rad_stream_delivered_total"] != 4 {
		t.Errorf("delivered = %d, want 4", counters["rad_stream_delivered_total"])
	}
	if counters["rad_stream_dropped_total"] != 6 {
		t.Errorf("dropped = %d, want 6", counters["rad_stream_dropped_total"])
	}

	// Per-subscriber child metrics are present while attached...
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `rad_stream_subscriber_delivered_total{id="1",name="tail-1"}`) {
		t.Fatalf("per-subscriber counter missing:\n%s", sb.String())
	}

	// ...and unregistered at Close, while lifetime totals persist.
	sub.Close()
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "rad_stream_subscriber_delivered_total{") {
		t.Fatal("per-subscriber metrics survived Close")
	}
	if !strings.Contains(sb.String(), "rad_stream_delivered_total 4") {
		t.Fatalf("lifetime delivered total lost after Close:\n%s", sb.String())
	}
}

// TestObsStreamSubscribeBeforeObserve: subscribers attached before Observe
// get their child metrics when Observe runs.
func TestObsStreamSubscribeBeforeObserve(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Name: "early", Buffer: 2})
	defer sub.Close()
	b.Observe(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `name="early"`) {
		t.Fatalf("pre-Observe subscriber has no child metrics:\n%s", sb.String())
	}
}
