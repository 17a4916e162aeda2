package stream_test

// Session-resilience tests: exactly-once resume, heartbeat supervision,
// auto-reconnecting tails, and graceful drain. Test names deliberately
// match the CI resilience shakeout's -run filter
// (Resume|Reconnect|Drain|Heartbeat).

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"rad/internal/obs"
	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// openDB returns a small-segment store so a handful of appends spans
// several sealed segments (rich ground for retention tests).
func openDB(t *testing.T, opts tracedb.Options) *tracedb.DB {
	t.Helper()
	db, err := tracedb.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func appendN(t *testing.T, db *tracedb.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := db.Append(store.Record{Device: "C9", Name: "MVNG"}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerResumeFromSeq: a subscriber resuming from seq k replays
// exactly [k, head) from the store, then follows live — no gaps, no
// duplicates.
func TestServerResumeFromSeq(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		db := openDB(t, tracedb.Options{})
		broker := stream.NewBroker()
		defer broker.Close()
		broker.AttachStore(db)
		_, addr := startServer(t, broker, db)
		appendN(t, db, 10)

		client, err := stream.Dial(addr, wire.Subscribe{
			ResumeFrom: 6, Policy: wire.PolicyBlock,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()

		for want := uint64(6); want < 10; want++ {
			ev, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind != wire.EventTrace || ev.Record.Seq != want {
				t.Fatalf("resume replay: kind=%s seq=%d, want trace seq %d", ev.Kind, ev.Record.Seq, want)
			}
		}
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != wire.EventSnapshotEnd {
			t.Fatalf("after resume replay got %s, want %s", ev.Kind, wire.EventSnapshotEnd)
		}
		// The live feed continues from the head, still gap-free.
		appendN(t, db, 2)
		for want := uint64(10); want < 12; want++ {
			ev, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind != wire.EventTrace || ev.Record.Seq != want {
				t.Fatalf("live after resume: kind=%s seq=%d, want trace seq %d", ev.Kind, ev.Record.Seq, want)
			}
		}
	})
}

// TestServerResumeBeyondHeadRefused: a resume point past the store head is
// a protocol error (the client's cursor is from a different store), not a
// silent empty replay.
func TestServerResumeBeyondHeadRefused(t *testing.T) {
	db := openDB(t, tracedb.Options{})
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	_, addr := startServer(t, broker, db)
	appendN(t, db, 3)

	client, err := stream.Dial(addr, wire.Subscribe{ResumeFrom: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Recv()
	var se *stream.SubscribeError
	if !errors.As(err, &se) {
		t.Fatalf("resume beyond head: err = %v, want *SubscribeError", err)
	}
	if !strings.Contains(se.Error(), "beyond the store head") {
		t.Fatalf("refusal does not name the cause: %v", se)
	}
}

// TestServerResumeBeforeFloorDegrades: a resume point that retention has
// already retired degrades gracefully — an explicit resume-gap notice with
// the exact loss count, then a full snapshot of what survives — rather
// than erroring or silently skipping.
func TestServerResumeBeforeFloorDegrades(t *testing.T) {
	db := openDB(t, tracedb.Options{
		SegmentBytes: 2 << 10,
		Lifecycle:    tracedb.LifecycleOptions{RetainMaxBytes: 4 << 10},
	})
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	_, addr := startServer(t, broker, db)

	// Small flushed batches so the tiny segments actually rotate and seal;
	// only sealed segments are retention candidates.
	for i := 0; i < 20; i++ {
		batch := make([]store.Record, 10)
		for j := range batch {
			batch[j] = store.Record{Device: "C9", Name: "MVNG", Args: []string{strings.Repeat("x", 64)}}
		}
		if err := db.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Retain(); err != nil {
		t.Fatal(err)
	}
	floor := db.SeqFloor()
	if floor == 0 {
		t.Fatal("retention never raised the seq floor — segment sizing is off")
	}

	resumeFrom := uint64(1)
	client, err := stream.Dial(addr, wire.Subscribe{ResumeFrom: resumeFrom, Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ev, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != wire.EventResumeGap {
		t.Fatalf("first event %s, want %s", ev.Kind, wire.EventResumeGap)
	}
	if ev.Gap != floor-resumeFrom {
		t.Fatalf("gap notice %d, want floor %d - resume %d = %d", ev.Gap, floor, resumeFrom, floor-resumeFrom)
	}
	// The full snapshot that follows starts exactly at the floor.
	ev, err = client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != wire.EventTrace || ev.Record.Seq != floor {
		t.Fatalf("post-gap snapshot starts at %s seq %d, want trace seq %d", ev.Kind, ev.Record.Seq, floor)
	}
}

// TestHeartbeatReapsSilentSubscriber: a raw v2 subscriber that never
// answers pings is declared half-open and reaped — its ring, metrics
// child, and goroutines go with it.
func TestHeartbeatReapsSilentSubscriber(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv := stream.NewServer(broker, nil)
	srv.SetHeartbeat(stream.HeartbeatConfig{Interval: 20 * time.Millisecond})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw wire conn, not a stream.Client: it subscribes and then goes
	// silent — no pongs, no reads. Only the heartbeat can detect this.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wc, err := wire.Client(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.WriteFrame(wire.Subscribe{Op: wire.OpSubscribe, Name: "mute"}); err != nil {
		t.Fatal(err)
	}
	waitForSubscriber(t, broker, 1)
	waitForNoSubscribers(t, broker)
}

// TestHeartbeatPongingClientStaysAlive: a stream.Client auto-answers pings
// inside Recv, so an event-less but healthy connection survives many
// heartbeat intervals.
func TestHeartbeatPongingClientStaysAlive(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv := stream.NewServer(broker, nil)
	srv.SetHeartbeat(stream.HeartbeatConfig{Interval: 10 * time.Millisecond})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := stream.Dial(addr, wire.Subscribe{Name: "alive", Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	// Recv in the background: it answers pings while waiting for events.
	got := make(chan wire.Event, 1)
	go func() {
		ev, err := client.Recv()
		if err == nil {
			got <- ev
		}
		close(got)
	}()
	// Ten heartbeat intervals of silence, then one event: the subscription
	// must still be there to deliver it.
	time.Sleep(100 * time.Millisecond)
	if n := len(broker.Stats()); n != 1 {
		t.Fatalf("ponging subscriber reaped: %d live subscribers", n)
	}
	broker.Publish(rec(1, "C9", "MVNG"))
	select {
	case ev, ok := <-got:
		if !ok || ev.Record == nil || ev.Record.Seq != 1 {
			t.Fatalf("event lost after heartbeat silence: %+v ok=%t", ev, ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event never delivered")
	}
}

// TestReconnectResilientTailResumesAcrossRestart: the server dies and
// comes back on the same address; a ResilientTail redials, resumes from
// its cursor, and its caller sees one continuous exactly-once stream.
func TestReconnectResilientTailResumesAcrossRestart(t *testing.T) {
	db := openDB(t, tracedb.Options{})
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	srv := stream.NewServer(broker, db)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rt := stream.NewResilientTail(stream.ResilientConfig{
		Addr:      addr,
		Subscribe: wire.Subscribe{Name: "survivor", Snapshot: true, Policy: wire.PolicyBlock},
		Seed:      42,
	})
	defer rt.Close()

	appendN(t, db, 5)
	next := uint64(0)
	recvTrace := func() {
		t.Helper()
		for {
			ev, err := rt.Recv()
			if err != nil {
				t.Fatalf("resilient recv (want seq %d): %v", next, err)
			}
			if ev.Kind != wire.EventTrace {
				continue
			}
			if ev.Record.Seq != next {
				t.Fatalf("seq %d delivered, want %d", ev.Record.Seq, next)
			}
			next++
			return
		}
	}
	for i := 0; i < 5; i++ {
		recvTrace()
	}

	// Kill the server, append while it is down, restart on the same port.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	appendN(t, db, 5)
	srv2 := stream.NewServer(broker, db)
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	for i := 0; i < 5; i++ {
		recvTrace()
	}
	st := rt.Stats()
	if st.Reconnects == 0 {
		t.Fatal("tail never reconnected — the restart was not exercised")
	}
	if st.Delivered != 10 || st.LastSeq != 9 {
		t.Fatalf("stats %+v, want 10 delivered through seq 9", st)
	}
}

// TestReconnectGivesUpAfterMaxAttempts: with no server at all, a bounded
// tail surfaces the dial error instead of retrying forever.
func TestReconnectGivesUpAfterMaxAttempts(t *testing.T) {
	rt := stream.NewResilientTail(stream.ResilientConfig{
		Addr:        "127.0.0.1:1", // reserved port: connection refused
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		Seed:        1,
	})
	defer rt.Close()
	_, err := rt.Recv()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("bounded tail returned %v, want the dial error", err)
	}
}

// TestReconnectChurnUnregistersSubscriberMetrics: churn N subscribers
// through abrupt disconnects; every per-subscriber obs child must be
// unregistered at the reap point — a dead connection may not leak gauges.
func TestReconnectChurnUnregistersSubscriberMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.Observe(reg)
	srv := stream.NewServer(broker, nil)
	srv.SetHeartbeat(stream.HeartbeatConfig{Interval: 20 * time.Millisecond})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for round := 0; round < 3; round++ {
		var clients []*stream.Client
		for i := 0; i < 4; i++ {
			c, err := stream.Dial(addr, wire.Subscribe{Name: "churn"})
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		waitForSubscriber(t, broker, 4)
		broker.Publish(rec(uint64(round), "C9", "MVNG"))
		// Abrupt close — no unsubscribe handshake, the server must notice.
		for _, c := range clients {
			_ = c.Close()
		}
		waitForNoSubscribers(t, broker)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "rad_stream_subscriber_") {
		t.Fatalf("per-subscriber metrics survived churn:\n%s", sb.String())
	}
}

// TestServerDrainFlushesSubscriberRings: events buffered in a subscriber's
// ring at drain time still reach the client before its connection closes —
// drain loses nothing that was already accepted.
func TestServerDrainFlushesSubscriberRings(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv := stream.NewServer(broker, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := stream.Dial(addr, wire.Subscribe{Name: "drainee", Policy: wire.PolicyBlock, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)

	const n = 32
	for i := 0; i < n; i++ {
		broker.Publish(rec(uint64(i), "C9", "MVNG"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	for want := uint64(0); want < n; want++ {
		ev, err := client.Recv()
		if err != nil {
			t.Fatalf("drain lost events: recv %d: %v", want, err)
		}
		if ev.Record == nil || ev.Record.Seq != want {
			t.Fatalf("drain delivered %+v, want seq %d", ev, want)
		}
	}
	// After the flush the stream ends cleanly.
	if _, err := client.Recv(); err == nil {
		t.Fatal("stream still open after drain flushed everything")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerDrainNoGoroutineLeak: repeated serve/subscribe/drain cycles
// (heartbeats on) return the process to its baseline goroutine count —
// supervision, pumps, and connection readers all exit.
func TestServerDrainNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		broker := stream.NewBroker()
		srv := stream.NewServer(broker, nil)
		srv.SetHeartbeat(stream.HeartbeatConfig{Interval: 10 * time.Millisecond})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var clients []*stream.Client
		for i := 0; i < 4; i++ {
			c, err := stream.Dial(addr, wire.Subscribe{Name: "leakcheck"})
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		waitForSubscriber(t, broker, 4)
		broker.Publish(rec(uint64(round), "C9", "MVNG"))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("round %d drain: %v", round, err)
		}
		cancel()
		for _, c := range clients {
			_ = c.Close()
		}
		broker.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
