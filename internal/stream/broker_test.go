package stream_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rad/internal/power"
	"rad/internal/robot"
	"rad/internal/simclock"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
)

func rec(seq uint64, dev, name string) store.Record {
	return store.Record{Seq: seq, Device: dev, Name: name}
}

func TestPublishDeliversInOrder(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Name: "t"})

	for i := 0; i < 100; i++ {
		b.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
	}
	for i := 0; i < 100; i++ {
		ev, ok := sub.Recv()
		if !ok {
			t.Fatalf("closed after %d events", i)
		}
		if ev.Kind != stream.KindTrace || ev.Record.Seq != uint64(i) {
			t.Fatalf("event %d: kind=%d seq=%d", i, ev.Kind, ev.Record.Seq)
		}
	}
	if _, ok := sub.TryRecv(); ok {
		t.Error("extra event buffered")
	}
	if got := b.Published(); got != 100 {
		t.Errorf("Published = %d, want 100", got)
	}
}

func TestFilterAppliesAtPublish(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Filter: tracedb.Query{Device: "UR3e"}})

	b.PublishBatch([]store.Record{
		rec(0, "C9", "MVNG"), rec(1, "UR3e", "movej"), rec(2, "IKA", "start"), rec(3, "UR3e", "movel"),
	})

	for _, want := range []uint64{1, 3} {
		ev, ok := sub.TryRecv()
		if !ok || ev.Record.Seq != want {
			t.Fatalf("got (%v, %v), want seq %d", ev.Record.Seq, ok, want)
		}
	}
	if _, ok := sub.TryRecv(); ok {
		t.Error("filtered event slipped through")
	}
	st := sub.Stats()
	if st.Dropped != 0 {
		t.Errorf("filtered events counted as drops: %d", st.Dropped)
	}
}

func TestPowerEventsGated(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	plain := b.Subscribe(stream.SubOptions{Name: "plain"})
	powered := b.Subscribe(stream.SubOptions{Name: "powered", Power: true})

	b.PublishPower(power.Sample{})
	if _, ok := plain.TryRecv(); ok {
		t.Error("power event reached a subscriber that did not opt in")
	}
	ev, ok := powered.TryRecv()
	if !ok || ev.Kind != stream.KindPower {
		t.Fatalf("power subscriber got (%v, %v)", ev.Kind, ok)
	}
}

func TestDropOldestExactAccounting(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Buffer: 8}) // DropOldest default

	const published = 100
	for i := 0; i < published; i++ {
		b.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
	}
	st := sub.Stats()
	if st.Dropped != published-8 {
		t.Errorf("Dropped = %d, want %d", st.Dropped, published-8)
	}
	if st.Buffered != 8 {
		t.Errorf("Buffered = %d, want 8", st.Buffered)
	}
	if !st.Lagging {
		t.Error("subscriber with drops not reported lagging")
	}
	// The ring holds the newest 8 events, oldest-first.
	for want := uint64(published - 8); want < published; want++ {
		ev, ok := sub.TryRecv()
		if !ok || ev.Record.Seq != want {
			t.Fatalf("got (%d, %v), want %d", ev.Record.Seq, ok, want)
		}
	}
	st = sub.Stats()
	if st.Delivered+st.Dropped != published {
		t.Errorf("delivered %d + dropped %d != published %d", st.Delivered, st.Dropped, published)
	}
}

func TestBlockPolicyIsLossless(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Buffer: 4, Policy: stream.Block})

	const total = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			b.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
		}
	}()
	for i := 0; i < total; i++ {
		ev, ok := sub.Recv()
		if !ok {
			t.Errorf("closed after %d events", i)
			return
		}
		if ev.Record.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, ev.Record.Seq)
			return
		}
	}
	<-done
	if st := sub.Stats(); st.Dropped != 0 {
		t.Errorf("Block subscriber dropped %d", st.Dropped)
	}
}

func TestCloseUnblocksBlockedPublisher(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Buffer: 1, Policy: stream.Block})

	b.PublishBatch([]store.Record{rec(0, "C9", "MVNG")}) // fills the ring
	published := make(chan struct{})
	go func() {
		b.PublishBatch([]store.Record{rec(1, "C9", "MVNG")}) // blocks on the full ring
		close(published)
	}()
	time.Sleep(10 * time.Millisecond) // let the publisher reach the wait
	sub.Close()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher still blocked after subscriber Close")
	}
}

func TestBrokerCloseDrainsBufferedEvents(t *testing.T) {
	b := stream.NewBroker()
	sub := b.Subscribe(stream.SubOptions{})
	b.PublishBatch([]store.Record{rec(0, "C9", "MVNG"), rec(1, "C9", "MVNG")})
	b.Close()

	for want := uint64(0); want < 2; want++ {
		ev, ok := sub.Recv()
		if !ok || ev.Record.Seq != want {
			t.Fatalf("drain got (%d, %v), want %d", ev.Record.Seq, ok, want)
		}
	}
	if _, ok := sub.Recv(); ok {
		t.Error("Recv reported an event after the ring drained")
	}
	// Publishes and subscriptions after Close are inert.
	b.PublishBatch([]store.Record{rec(2, "C9", "MVNG")})
	late := b.Subscribe(stream.SubOptions{})
	if _, ok := late.Recv(); ok {
		t.Error("post-Close subscriber received an event")
	}
}

func TestStalledSubscriberDoesNotStallPublisher(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	b.Subscribe(stream.SubOptions{Name: "stalled", Buffer: 4}) // never Recvs

	done := make(chan struct{})
	go func() {
		for i := 0; i < 50000; i++ {
			b.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publishing stalled behind a dead drop-oldest subscriber")
	}
}

// TestSoakProducersAndSlowSubscribers is the race/soak stress test: several
// producers fan into a mix of Block and DropOldest subscribers, some
// deliberately slow. Under -race it must neither deadlock nor lose events
// for Block subscribers, and DropOldest accounting must stay exact
// (delivered + dropped == published).
func TestSoakProducersAndSlowSubscribers(t *testing.T) {
	const (
		producers   = 4
		perProducer = 2000
		total       = producers * perProducer
	)
	b := stream.NewBroker()
	defer b.Close()

	type consumer struct {
		sub      *stream.Subscriber
		received int
		block    bool
	}
	var consumers []*consumer
	for i := 0; i < 3; i++ {
		consumers = append(consumers, &consumer{
			sub:   b.Subscribe(stream.SubOptions{Name: fmt.Sprintf("block-%d", i), Buffer: 64, Policy: stream.Block}),
			block: true,
		})
	}
	for i := 0; i < 3; i++ {
		consumers = append(consumers, &consumer{
			sub: b.Subscribe(stream.SubOptions{Name: fmt.Sprintf("slow-%d", i), Buffer: 32}),
		})
	}

	var consumerWG sync.WaitGroup
	for ci, c := range consumers {
		consumerWG.Add(1)
		go func(ci int, c *consumer) {
			defer consumerWG.Done()
			for {
				_, ok := c.sub.Recv()
				if !ok {
					return
				}
				c.received++
				if !c.block && c.received%64 == 0 {
					time.Sleep(time.Millisecond) // deliberately fall behind
				}
			}
		}(ci, c)
	}

	var producerWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		producerWG.Add(1)
		go func(p int) {
			defer producerWG.Done()
			for i := 0; i < perProducer; i++ {
				b.PublishBatch([]store.Record{rec(uint64(p*perProducer+i), "C9", "MVNG")})
			}
		}(p)
	}
	producerWG.Wait()
	b.Close() // consumers drain their rings, then exit
	consumerWG.Wait()

	for _, c := range consumers {
		st := c.sub.Stats()
		if c.block {
			if c.received != total || st.Dropped != 0 {
				t.Errorf("%s: received %d (dropped %d), want %d lossless",
					st.Name, c.received, st.Dropped, total)
			}
		} else {
			if int(st.Delivered)+int(st.Dropped) != total {
				t.Errorf("%s: delivered %d + dropped %d != published %d",
					st.Name, st.Delivered, st.Dropped, total)
			}
			if c.received != int(st.Delivered) {
				t.Errorf("%s: consumer saw %d, stats say delivered %d",
					st.Name, c.received, st.Delivered)
			}
		}
	}
}

func TestBrokerStatsSnapshotsEverySubscriber(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	b.Subscribe(stream.SubOptions{Name: "a"})
	b.Subscribe(stream.SubOptions{Name: "b", Buffer: 2})
	b.PublishBatch([]store.Record{rec(0, "C9", "MVNG")})

	stats := b.Stats()
	if len(stats) != 2 {
		t.Fatalf("%d subscriber stats", len(stats))
	}
	names := map[string]bool{}
	for _, s := range stats {
		names[s.Name] = true
		if s.Buffered != 1 {
			t.Errorf("%s buffered %d, want 1", s.Name, s.Buffered)
		}
	}
	if !names["a"] || !names["b"] {
		t.Errorf("stats names = %v", names)
	}
}

// TestSubscriberStatsBeforeFirstEvent: a subscriber's ring is allocated at
// the first event offered to it, yet its Stats report the configured
// capacity from the start, and an empty ring never reads as lagging.
func TestSubscriberStatsBeforeFirstEvent(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	for _, tc := range []struct{ buffer, want int }{{0, stream.DefaultBuffer}, {8, 8}} {
		sub := b.Subscribe(stream.SubOptions{Name: "idle", Buffer: tc.buffer})
		if st := sub.Stats(); st.Capacity != tc.want || st.Lagging || st.Buffered != 0 {
			t.Errorf("buffer %d: stats before any event %+v, want capacity %d, not lagging", tc.buffer, st, tc.want)
		}
		sub.Close()
	}
	sub := b.Subscribe(stream.SubOptions{Name: "one", Buffer: 8})
	b.PublishBatch([]store.Record{rec(0, "C9", "MVNG")})
	if st := sub.Stats(); st.Capacity != 8 || st.Lagging || st.Buffered != 1 {
		t.Errorf("stats after one event %+v, want capacity 8, one buffered, not lagging", st)
	}
}

func TestNilBrokerIsInert(t *testing.T) {
	var b *stream.Broker
	b.PublishBatch([]store.Record{rec(1, "C9", "MVNG")}) // must not panic
	b.PublishPower(power.Sample{})
	if b.Published() != 0 || b.Stats() != nil {
		t.Error("nil broker reported activity")
	}
}

func TestMemStoreCommitHookPublishes(t *testing.T) {
	b := stream.NewBroker()
	defer b.Close()
	ms := store.NewMemStore()
	b.AttachStore(ms)
	sub := b.Subscribe(stream.SubOptions{})

	if err := ms.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	batch := []store.Record{
		{Device: "C9", Name: "GRIP"},
		{Device: "UR3e", Name: "movej"},
	}
	if err := ms.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	for want := uint64(0); want < 3; want++ {
		ev, ok := sub.TryRecv()
		if !ok {
			t.Fatalf("missing event %d", want)
		}
		if ev.Record.Seq != want {
			t.Errorf("event has seq %d, want %d (authoritative store numbering)", ev.Record.Seq, want)
		}
	}
}

func TestMonitorBridgePublishesPowerSamples(t *testing.T) {
	// The monitor publishes from its sample hook, on the goroutine
	// recording the samples, so they are buffered when RecordQuiescent
	// returns.
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Power: true, Policy: stream.Block, Buffer: 64})

	m := power.NewMonitor(power.DefaultModel(), simclock.NewVirtual(time.Unix(0, 0)), 1)
	b.AttachMonitor(m)
	m.RecordQuiescent(200 * time.Millisecond) // a few idle samples at 25 Hz

	got := 0
	for {
		ev, ok := sub.TryRecv()
		if !ok {
			break
		}
		if ev.Kind == stream.KindPower {
			got++
		}
	}
	if got != m.Len() || got == 0 {
		t.Errorf("%d power samples reached the subscriber, want %d", got, m.Len())
	}
}

// TestPowerSampleNeverStallsRobot: a Block power subscriber that is never
// read must not stall the arm. At its full ring each further sample is
// dropped and counted, and the trace event it buffered first is kept.
func TestPowerSampleNeverStallsRobot(t *testing.T) {
	const buffer = 4
	b := stream.NewBroker()
	defer b.Close()
	sub := b.Subscribe(stream.SubOptions{Power: true, Policy: stream.Block, Buffer: buffer})
	b.PublishBatch([]store.Record{rec(0, "UR3e", "movej")})

	m := power.NewMonitor(power.DefaultModel(), simclock.NewVirtual(time.Unix(0, 0)), 1)
	var samples []power.Sample
	m.SetOnSample(func(s power.Sample) { samples = append(samples, s) })
	b.AttachMonitor(m)
	a, _ := robot.Location("L0")
	z, _ := robot.Location("L1")
	mv, err := robot.NewMove(a, z, robot.LinearToAngular(200), robot.DefaultAccel)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		m.RecordMove(mv)
		done <- m.Len()
	}()
	var produced int
	select {
	case produced = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RecordMove stalled behind a Block power subscriber nobody reads")
	}

	kept := buffer - 1 // the trace event holds one slot
	if st := sub.Stats(); st.Dropped != uint64(produced-kept) || st.Buffered != buffer {
		t.Fatalf("stats = %+v after %d samples, want %d dropped and %d buffered", st, produced, produced-kept, buffer)
	}
	for i := 0; i < buffer; i++ {
		ev, ok := sub.TryRecv()
		switch {
		case !ok:
			t.Fatalf("event %d missing", i)
		case i == 0 && (ev.Kind != stream.KindTrace || ev.Record.Name != "movej"):
			t.Fatalf("first event = %+v, want the buffered trace event", ev)
		case i > 0 && (ev.Kind != stream.KindPower || !ev.Sample.Time.Equal(samples[i-1].Time)):
			t.Fatalf("event %d = kind %d at %v, want power sample %d", i, ev.Kind, ev.Sample.Time, i-1)
		}
	}
}
