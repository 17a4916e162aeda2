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
// carrying the store's sequence number, and the broker's counters (the
// shutdown summary's stream lines) account for each one.
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
	stats := broker.Stats()
	if broker.Published() != 3 || len(stats) != 1 || stats[0].Delivered != 3 || stats[0].Dropped != 0 {
		t.Errorf("published %d, subscriber stats %+v, want 3 published and 3 delivered", broker.Published(), stats)
	}
}
