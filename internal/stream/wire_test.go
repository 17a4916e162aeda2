package stream_test

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"rad/internal/store"
	"rad/internal/stream"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// TestWireV2BadSubscribeGetsEventError: a peer that completes the
// handshake and then sends a malformed subscribe gets a precise EventError
// frame back, not a silent close.
func TestWireV2BadSubscribeGetsEventError(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc, err := wire.Client(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed frame of the wrong type: decodes as garbage for a
	// Subscribe, so the server must answer with the decode error.
	if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	var ev wire.Event
	if err := wc.ReadFrame(&ev); err != nil {
		t.Fatalf("want an EventError frame, read failed: %v", err)
	}
	if ev.Kind != wire.EventError || !strings.Contains(ev.Error, "bad subscribe frame") {
		t.Fatalf("got %+v, want EventError mentioning the bad subscribe", ev)
	}
}

// TestWireV1BadSubscribeStillSilent: a peer that opens with a subscribe in
// the retired length-prefixed JSON framing instead of the preamble gets no
// reply — its connection is dropped — and the next subscriber is served.
func TestWireV1BadSubscribeStillSilent(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	legacy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	sub := []byte(`{"op":"subscribe","name":"legacy"}`)
	if _, err := legacy.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(sub))), sub...)); err != nil {
		t.Fatal(err)
	}
	_ = legacy.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := legacy.Read(make([]byte, 1)); err == nil {
		t.Fatalf("v1 subscribe got %d reply bytes", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("v1 subscriber's connection was left open")
	}

	client, err := stream.Dial(addr, wire.Subscribe{Name: "next"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)
	broker.Publish(rec(3, "C9", "MVNG"))
	if ev, err := client.Recv(); err != nil || ev.Record == nil || ev.Record.Seq != 3 {
		t.Fatalf("next subscriber recv = %+v, %v", ev, err)
	}
}

// TestWireStreamCloseSeversPreSubscribeConn: connections are tracked from
// the moment they land, so Close cannot be held hostage by a client that
// connected and then went quiet before (or during) negotiation.
func TestWireStreamCloseSeversPreSubscribeConn(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	srv, addr := startServer(t, broker, nil)

	// Three stalls at different protocol stages: nothing sent, a partial
	// preamble, and a full handshake with no subscribe.
	quiet, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	partial, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	if _, err := partial.Write([]byte{'R', 'A'}); err != nil {
		t.Fatal(err)
	}
	shaken, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer shaken.Close()
	if _, err := wire.Client(shaken, nil); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on pre-subscribe connections")
	}
}

// TestWireStreamDeadConnDuringNegotiation: a client that dies mid-handshake
// must cost the server nothing — the next subscriber is served normally.
func TestWireStreamDeadConnDuringNegotiation(t *testing.T) {
	broker := stream.NewBroker()
	defer broker.Close()
	_, addr := startServer(t, broker, nil)

	dying, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dying.Write([]byte{'R', 'A', 'D'}); err != nil {
		t.Fatal(err)
	}
	_ = dying.Close()

	client, err := stream.Dial(addr, wire.Subscribe{Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitForSubscriber(t, broker, 1)
	broker.Publish(rec(7, "C9", "MVNG"))
	if ev, err := client.Recv(); err != nil || ev.Record == nil || ev.Record.Seq != 7 {
		t.Fatalf("survivor recv = %+v, %v", ev, err)
	}
}

// TestWireV2SnapshotThenFollow runs the full snapshot-then-follow protocol
// over the wire, with records that exercise the codec's time and
// args paths end to end through the tracedb.
func TestWireV2SnapshotThenFollow(t *testing.T) {
	db, broker, addr := snapshotFixture(t)
	defer broker.Close()

	client, err := stream.Dial(addr, wire.Subscribe{Snapshot: true, Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for want := uint64(0); want < 5; want++ {
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != wire.EventTrace || ev.Record.Seq != want {
			t.Fatalf("snapshot event %d: %+v", want, ev)
		}
		if len(ev.Record.Args) != 2 || ev.Record.Args[1] != "ünïcödé" {
			t.Fatalf("snapshot record %d args mangled: %+v", want, ev.Record.Args)
		}
	}
	if ev, err := client.Recv(); err != nil || ev.Kind != wire.EventSnapshotEnd {
		t.Fatalf("want snapshot end, got %+v, %v", ev, err)
	}
	if err := db.Append(store.Record{Device: "UR3e", Name: "movej"}); err != nil {
		t.Fatal(err)
	}
	if ev, err := client.Recv(); err != nil || ev.Kind != wire.EventTrace || ev.Record.Seq != 5 {
		t.Fatalf("live event after snapshot: %+v, %v", ev, err)
	}
}

// TestSnapshotTailMatchesStore: a snapshot tail over TCP delivers every
// record exactly as the store holds it — the same instant in the same
// location, and a zero EndTime still zero — because the wire event carries
// the store's record encoding.
func TestSnapshotTailMatchesStore(t *testing.T) {
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	_, addr := startServer(t, broker, db)

	start := time.Date(2021, 10, 1, 9, 30, 0, 123456789, time.FixedZone("PDT", -7*3600))
	for _, r := range []store.Record{
		{Time: start, EndTime: start.Add(3 * time.Millisecond), Device: "UR3e", Name: "move_joints",
			Args: []string{"0.5", "ünïcödé"}, Response: "ok", Procedure: "P2", Run: "run-1", Mode: "REMOTE"},
		{Time: start.Add(time.Second), Device: "C9", Name: "MVNG", Exception: "timeout",
			Procedure: store.UnknownProcedure, Mode: "DIRECT"},
	} {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := db.Collect(tracedb.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("store holds %d records, want 2", len(want))
	}
	if !want[1].EndTime.IsZero() {
		t.Errorf("store read a zero EndTime back as %v", want[1].EndTime)
	}

	client, err := stream.Dial(addr, wire.Subscribe{Snapshot: true, Policy: wire.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := range want {
		ev, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != wire.EventTrace || ev.Record == nil || !reflect.DeepEqual(*ev.Record, want[i]) {
			t.Errorf("snapshot record %d:\n got %+v\nwant %+v", i, ev.Record, want[i])
		}
	}
	if ev, err := client.Recv(); err != nil || ev.Kind != wire.EventSnapshotEnd {
		t.Fatalf("want snapshot end, got %+v, %v", ev, err)
	}
}

func snapshotFixture(t *testing.T) (db *tracedb.DB, broker *stream.Broker, addr string) {
	t.Helper()
	tdb, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tdb.Close() })
	broker = stream.NewBroker()
	broker.AttachStore(tdb)
	_, addr = startServer(t, broker, tdb)
	for i := 0; i < 5; i++ {
		if err := tdb.Append(store.Record{
			Time: time.Unix(0, int64(1000+i)).UTC(), Device: "C9", Name: "MVNG",
			Args: []string{"x", "ünïcödé"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tdb, broker, addr
}
