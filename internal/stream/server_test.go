package stream_test

import (
	"io"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

func startServer(t *testing.T, broker *stream.Broker, db *tracedb.DB) (*stream.Server, string) {
	t.Helper()
	srv := stream.NewServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestServerLiveTailOverTCP(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{Name: "test-tail"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	go func() {
		for i := 0; i < 20; i++ {
			broker.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
		}
	}()
	for i := 0; i < 20; i++ {
		ev, err := client.Recv()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Kind != wire.EventTrace || ev.Record == nil || ev.Record.Seq != uint64(i) {
			t.Fatalf("event %d: kind=%s record=%+v", i, ev.Kind, ev.Record)
		}
	}
}

func TestServerFilterPushdown(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{Device: "UR3e"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	go func() {
		devs := []string{"C9", "UR3e", "IKA", "UR3e"}
		for i, d := range devs {
			broker.PublishBatch([]store.Record{rec(uint64(i), d, "cmd")})
		}
	}()
	for _, want := range []uint64{1, 3} {
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Record.Device != "UR3e" || ev.Record.Seq != want {
			t.Fatalf("filtered stream delivered %+v, want UR3e seq %d", ev.Record, want)
		}
	}
}

func TestServerSnapshotThenFollow(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	_, addr := startServer(t, broker, db)

	for i := 0; i < 10; i++ {
		if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
			t.Fatal(err)
		}
	}

	client, err := stream.Dial(addr, wire.Subscribe{Snapshot: true, Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Ten history records, then the snapshot-end marker.
	for want := uint64(0); want < 10; want++ {
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != wire.EventTrace || ev.Record.Seq != want {
			t.Fatalf("snapshot event: kind=%s seq=%d, want trace seq %d", ev.Kind, ev.Record.Seq, want)
		}
	}
	ev, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != wire.EventSnapshotEnd {
		t.Fatalf("after snapshot got %s, want %s", ev.Kind, wire.EventSnapshotEnd)
	}

	// A record committed now arrives live, with the store's seq.
	if err := db.Append(store.Record{Device: "UR3e", Name: "movej"}); err != nil {
		t.Fatal(err)
	}
	ev, err = client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != wire.EventTrace || ev.Record.Seq != 10 {
		t.Fatalf("live event: kind=%s seq=%d, want trace seq 10", ev.Kind, ev.Record.Seq)
	}
}

func TestServerRejectsSnapshotWithoutStore(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Recv(); err == nil || err == io.EOF {
		t.Fatalf("snapshot without store: err = %v, want subscription failure", err)
	}
}

func TestServerRejectsInvalidSubscribe(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{Policy: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Recv(); err == nil || err == io.EOF {
		t.Fatalf("invalid policy: err = %v, want subscription failure", err)
	}
}

func TestServerReportsDropDeltas(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	// A tiny ring with the default drop-oldest policy: publishing far more
	// events than the ring holds before the client reads anything forces
	// drops, and the server must report the exact shed count across the
	// frames it does deliver.
	client, err := stream.Dial(addr, wire.Subscribe{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	const published = 5000
	for i := 0; i < published; i++ {
		broker.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
	}
	var got, dropped uint64
	deadline := time.After(10 * time.Second)
	for got+dropped < published {
		select {
		case <-deadline:
			t.Fatalf("accounted for %d of %d events", got+dropped, published)
		default:
		}
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != wire.EventTrace {
			continue
		}
		got++
		dropped += ev.Dropped
	}
	if got+dropped != published {
		t.Fatalf("delivered %d + dropped %d != published %d", got, dropped, published)
	}
	t.Logf("slow tail: %d delivered, %d dropped (exact)", got, dropped)
}

func TestServerCloseEndsStreams(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recv(); err == nil {
		t.Fatal("Recv succeeded after server close")
	}
}

// waitForSubscriber blocks until the broker has n live subscribers — the
// server registers a connection's subscription asynchronously to Dial.
func waitForSubscriber(t *testing.T, b *stream.Broker, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.Stats()) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("broker never reached %d subscribers", n)
}

// waitForNoSubscribers is waitForSubscriber's inverse: it blocks until every
// subscription has been torn down.
func waitForNoSubscribers(t *testing.T, b *stream.Broker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.Stats()) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("subscribers never unregistered: %+v", b.Stats())
}

// TestServerDeadConnUnregistersQuietFeed kills a tailer's connection while
// the feed is quiet. Without the connection watchdog the subscription would
// linger until the next publish tried to write; with it, the dead tailer is
// unregistered promptly.
func TestServerDeadConnUnregistersQuietFeed(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	waitForSubscriber(t, broker, 1)
	_ = client.Close() // nothing published yet: only the watchdog notices
	waitForNoSubscribers(t, broker)

	// The broker still works for the next tailer.
	client2, err := stream.Dial(addr, wire.Subscribe{Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	waitForSubscriber(t, broker, 1)
	broker.PublishBatch([]store.Record{rec(1, "C9", "MVNG")})
	if ev, err := client2.Recv(); err != nil || ev.Record == nil || ev.Record.Seq != 1 {
		t.Fatalf("survivor recv = %+v, %v", ev, err)
	}
}

// TestServerDeadConnMidStream kills the connection in the middle of an
// active stream — some frames consumed, more in flight — and checks the
// subscription is torn down and a Block-policy ring cannot stall the
// producer afterwards.
func TestServerDeadConnMidStream(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	client, err := stream.Dial(addr, wire.Subscribe{Name: "doomed", Policy: wire.PolicyBlock, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitForSubscriber(t, broker, 1)

	for i := 0; i < 3; i++ {
		broker.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
	}
	if _, err := client.Recv(); err != nil { // mid-frame: one consumed, two buffered
		t.Fatal(err)
	}
	_ = client.Close()
	waitForNoSubscribers(t, broker)

	// With the dead Block-policy subscriber gone, publishing cannot stall.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			broker.PublishBatch([]store.Record{rec(uint64(10+i), "C9", "MVNG")})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish stalled on a dead subscriber")
	}
}
