package stream_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// The tail listener queues event frames and writes them in batches. These
// tests pin when the queued frames must go out: at the end of a snapshot,
// whenever the ring runs empty, and on every heartbeat ping.

// replayRecord is a synthetic trace record of ~100 bytes on the wire, so a
// few thousand of them span several of the listener's 32 KiB write batches.
func replayRecord(i int) store.Record {
	start := time.Unix(1_700_000_000+int64(i), 0)
	return store.Record{
		Time: start, EndTime: start.Add(3 * time.Millisecond),
		Device: "UR3e", Name: "move_joints",
		Args:     []string{fmt.Sprintf("%d.5", i), "-1.2", "0.3"},
		Response: "ok", Procedure: "P2", Run: fmt.Sprintf("run-%d", i%7), Mode: "REMOTE",
	}
}

// replayStore opens a tracedb holding n replay records in blocks of 500,
// with a broker on its commit hook and a tail listener serving both.
func replayStore(t *testing.T, n int) (*tracedb.DB, *stream.Broker, *stream.Server, string) {
	t.Helper()
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = replayRecord(i)
	}
	for off := 0; off < n; off += 500 {
		if err := db.AppendBatch(recs[off:min(off+500, n)]); err != nil {
			t.Fatal(err)
		}
	}
	broker := stream.NewBroker()
	t.Cleanup(broker.Close)
	broker.AttachStore(db)
	srv, addr := startServer(t, broker, db)
	return db, broker, srv, addr
}

// TestStreamSnapshotFlushesLoneLiveEvent: after a snapshot larger than one
// write batch, a single live record with no traffic after it must still
// reach the client — the pump writes its queue before it waits on an empty
// ring, instead of holding the frame for a batch that never fills.
func TestStreamSnapshotFlushesLoneLiveEvent(t *testing.T) {
	const n = 2000 // ~150 KiB of event frames
	_, broker, _, addr := replayStore(t, n)

	client, err := stream.Dial(addr, wire.Subscribe{Name: "lone", Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetIdleTimeout(5 * time.Second)
	for seen := 0; ; {
		ev, err := client.Recv()
		if err != nil {
			t.Fatalf("snapshot: recv after %d records: %v", seen, err)
		}
		if ev.Kind == wire.EventSnapshotEnd {
			if seen != n {
				t.Fatalf("snapshot replayed %d records, want %d", seen, n)
			}
			break
		}
		if ev.Kind != wire.EventTrace || ev.Record.Seq != uint64(seen) {
			t.Fatalf("snapshot frame %d: kind %s, record %+v", seen, ev.Kind, ev.Record)
		}
		seen++
	}

	broker.PublishBatch([]store.Record{{Seq: n, Device: "C9", Name: "MVNG"}})
	client.SetIdleTimeout(time.Second)
	ev, err := client.Recv()
	if err != nil {
		t.Fatalf("lone live record not delivered within 1s: %v", err)
	}
	if ev.Kind != wire.EventTrace || ev.Record.Seq != n {
		t.Fatalf("live frame: kind %s, record %+v; want trace seq %d", ev.Kind, ev.Record, n)
	}
}

// TestStreamHeartbeatInterleavesQueuedEvents: with heartbeats on and the
// ring kept busy, pings still reach the client between batches of events,
// the client's pongs keep the connection alive past the two-interval
// deadline, and events arrive in sequence order.
func TestStreamHeartbeatInterleavesQueuedEvents(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv := stream.NewServer(broker, nil)
	srv.SetHeartbeat(50 * time.Millisecond)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw wire client, so the test sees the pings Client.Recv would hide.
	conn, wc, err := wire.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wc.WriteFrame(wire.Subscribe{Op: wire.OpSubscribe, Name: "busy",
		Policy: wire.PolicyBlock, Buffer: 64}); err != nil {
		t.Fatal(err)
	}
	waitForSubscriber(t, broker, 1)

	const n = 5000
	go func() {
		// Bursts spread over ≥500 ms, so the feed spans ten ping intervals.
		for i := 0; i < n; i++ {
			broker.PublishBatch([]store.Record{rec(uint64(i), "C9", "MVNG")})
			if i%100 == 99 {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()

	var pings, lastPing uint64
	read := func() *wire.Event {
		t.Helper()
		var tf wire.TailFrame
		if err := wc.ReadFrame(&tf); err != nil {
			t.Fatalf("read after %d pings: %v", pings, err)
		}
		if tf.Ping == nil {
			return tf.Event
		}
		if tf.Ping.Seq <= lastPing {
			t.Fatalf("ping seq %d after %d", tf.Ping.Seq, lastPing)
		}
		pings, lastPing = pings+1, tf.Ping.Seq
		if err := wc.WriteFrame(wire.Pong{Seq: tf.Ping.Seq}); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for want := uint64(0); want < n; {
		ev := read()
		if ev == nil {
			continue
		}
		if ev.Kind != wire.EventTrace || ev.Record.Seq != want {
			t.Fatalf("event %d: kind %s, record %+v", want, ev.Kind, ev.Record)
		}
		want++
	}
	if pings < 3 {
		t.Fatalf("%d pings during a ≥500 ms feed at a 50 ms interval, want ≥ 3", pings)
	}

	// Keep ponging through a quiet stretch of four intervals: the
	// connection stays, and a later event still arrives behind the pings.
	quiet := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(quiet) {
		if ev := read(); ev != nil {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if got := len(broker.Stats()); got != 1 {
		t.Fatalf("ponging subscriber reaped: %d live subscribers", got)
	}
	broker.PublishBatch([]store.Record{rec(n, "C9", "MVNG")})
	for {
		if ev := read(); ev != nil {
			if ev.Record == nil || ev.Record.Seq != n {
				t.Fatalf("late event %+v, want seq %d", ev, n)
			}
			break
		}
	}
}

// TestStreamClientClosedMidSnapshotDetaches: a client that hangs up early in
// a multi-MiB snapshot is detached, and its server goroutine exits on its
// own. Write errors now surface when a batch is written rather than per
// frame, but they still end the replay.
func TestStreamClientClosedMidSnapshotDetaches(t *testing.T) {
	const n = 50000 // ~5 MiB of event frames
	_, broker, srv, addr := replayStore(t, n)
	client, err := stream.Dial(addr, wire.Subscribe{Name: "quitter", Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := client.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	_ = client.Close()
	waitForNoSubscribers(t, broker)

	// Drain severs no connection before its deadline, so it returns nil
	// only once the serving goroutine has exited by itself.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("serving goroutine still running after its client hung up: %v", err)
	}
}

// TestStreamRecvRecordsSurviveLaterFrames: Client.Recv decodes every record
// into one it owns, so consecutive calls return the same *store.Record, and
// callers that keep records (ResilientTail, radwatch, the online IDS) keep
// copies. A copy kept across thousands of later frames must still describe
// the store's record: a string or Args slice aliasing the read buffer or
// the reused record would change under it. The frames cover every path a
// record takes: forwarded blocks, the one-record frames of a block the
// filter matches only in part, and those of the staged tail.
func TestStreamRecvRecordsSurviveLaterFrames(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// Five blocks of UR3e records, then one in which every fourth record is
	// C9's, then 200 staged UR3e records.
	for b := 0; b < 6; b++ {
		recs := make([]store.Record, 500)
		for i := range recs {
			recs[i] = replayRecord(b*500 + i)
			if b == 5 && i%4 == 0 {
				recs[i].Device, recs[i].Name = "C9", "MVNG"
			}
		}
		if err := db.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3000; i < 3200; i++ {
		if err := db.Append(replayRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := tracedb.Query{Device: "UR3e"}
	if pl := db.Explain(q); pl.CandidateBlocks != 6 || pl.CoveredBlocks != 5 || pl.StagedTail != 200 {
		t.Fatalf("planner picks %d blocks, %d covered, %d staged; want 6, 5 and 200",
			pl.CandidateBlocks, pl.CoveredBlocks, pl.StagedTail)
	}
	want, err := db.Collect(q)
	if err != nil {
		t.Fatal(err)
	}
	broker := stream.NewBroker()
	t.Cleanup(broker.Close)
	broker.AttachStore(db)
	_, addr := startServer(t, broker, db)

	client, err := stream.Dial(addr, wire.Subscribe{Name: "keeper", Snapshot: true, Device: "UR3e"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetIdleTimeout(5 * time.Second)
	var kept []store.Record
	var owned *store.Record
	for {
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == wire.EventSnapshotEnd {
			break
		}
		if owned == nil {
			owned = ev.Record
		} else if ev.Record != owned {
			t.Fatalf("Recv %d returned a record other than the client's", len(kept))
		}
		kept = append(kept, *ev.Record)
	}
	if len(kept) != len(want) {
		t.Fatalf("replayed %d records, store holds %d", len(kept), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(kept[i], want[i]) {
			t.Fatalf("record %d after %d later frames:\n got  %+v\n want %+v", i, len(want)-1-i, kept[i], want[i])
		}
	}
}
