package middlebox

import (
	"testing"
	"time"

	"rad/internal/device"
	"rad/internal/device/c9"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/wire"
)

func execReq(name string) wire.Request {
	return wire.Request{Op: wire.OpExec, Device: "C9", Name: name}
}

// TestAttachBrokerPublishesWithStoreSeqs checks the notifier wiring: with a
// sequencing sink, every handled exec reaches a subscriber exactly once,
// carrying the store's sequence number.
func TestAttachBrokerPublishesWithStoreSeqs(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	sink := store.NewMemStore()
	core := NewCore(clock, sink)
	core.Register(c9.New(device.NewEnv(clock, 1)))

	broker := stream.NewBroker()
	defer broker.Close()
	core.AttachBroker(broker)
	sub := broker.Subscribe(stream.SubOptions{Policy: stream.Block, Buffer: 64})

	for _, name := range []string{device.Init, "MVNG", "MVNG"} {
		if rep := core.Handle(execReq(name)); rep.Error != "" {
			t.Fatal(rep.Error)
		}
	}
	for want := uint64(0); want < 3; want++ {
		ev, ok := sub.TryRecv()
		if !ok {
			t.Fatalf("missing event %d", want)
		}
		if ev.Record.Seq != want {
			t.Errorf("event seq %d, want %d (store numbering)", ev.Record.Seq, want)
		}
	}
	if _, ok := sub.TryRecv(); ok {
		t.Error("record published twice (hook and logging path both fired)")
	}
}

// TestSnapshotIncludesSubscriberStats is the per-subscriber accounting
// satellite: Core.Snapshot must expose each live subscriber's delivery
// counters alongside the request counters.
func TestSnapshotIncludesSubscriberStats(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	core := NewCore(clock, store.NewMemStore())
	core.Register(c9.New(device.NewEnv(clock, 1)))

	if got := core.Snapshot().Subscribers; got != nil {
		t.Fatalf("no broker attached but Subscribers = %v", got)
	}

	broker := stream.NewBroker()
	defer broker.Close()
	core.AttachBroker(broker)
	sub := broker.Subscribe(stream.SubOptions{Name: "watcher", Buffer: 2})

	for _, name := range []string{device.Init, "MVNG", "MVNG", "MVNG"} {
		if rep := core.Handle(execReq(name)); rep.Error != "" {
			t.Fatal(rep.Error)
		}
	}
	sub.Recv() // deliver one

	stats := core.Snapshot()
	if len(stats.Subscribers) != 1 {
		t.Fatalf("%d subscriber stats, want 1", len(stats.Subscribers))
	}
	s := stats.Subscribers[0]
	if s.Name != "watcher" {
		t.Errorf("stats name %q", s.Name)
	}
	if s.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", s.Delivered)
	}
	// Four publishes into a two-slot ring, one consumed: exact accounting.
	if s.Delivered+s.Dropped+uint64(s.Buffered) != 4 {
		t.Errorf("delivered %d + dropped %d + buffered %d != 4 published",
			s.Delivered, s.Dropped, s.Buffered)
	}
	if !s.Lagging {
		t.Error("subscriber with drops not marked lagging")
	}
}
