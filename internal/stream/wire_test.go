package stream_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rad/internal/device"
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
	broker.PublishBatch([]store.Record{rec(3, "C9", "MVNG")})
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
	broker.PublishBatch([]store.Record{rec(7, "C9", "MVNG")})
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

// TestSnapshotTailMatchesStore: a snapshot tail over TCP delivers exactly
// the records the store holds for its subscription, in order, then the
// snapshot-end marker — the same instant in the same location, and a zero
// EndTime still zero. The cases shape the store so the server forwards
// some blocks whole and sends the rest record by record: written blocks
// plus a staged tail, a device filter that covers one block and matches
// another only in part, and a resume point inside a written block, whose
// block must go record by record or the resume would replay duplicates.
func TestSnapshotTailMatchesStore(t *testing.T) {
	// Four records to a block: seqs 0-3 are all C9, 4-7 alternate C9 and
	// UR3e, 8-11 are all UR3e, and 12-13 stay staged.
	db, err := tracedb.Open(t.TempDir(), tracedb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	broker := stream.NewBroker()
	defer broker.Close()
	broker.AttachStore(db)
	_, addr := startServer(t, broker, db)

	// The wire and the store both decode a time as time.Unix does, so only
	// staged records, which the store hands back as appended, need their
	// times built that way to compare equal.
	start := time.Unix(1633105800, 123456789)
	for i := 0; i < 14; i++ {
		r := store.Record{Time: start.Add(time.Duration(i) * time.Second), Device: "UR3e", Name: "move_joints",
			Args: []string{fmt.Sprintf("%d.5", i), "ünïcödé"}, Response: "ok", Procedure: "P2", Run: "run-1", Mode: "REMOTE"}
		if i < 4 || (i < 8 && i%2 == 0) || i == 12 {
			r.Device, r.Name, r.Args, r.Response = "C9", "MVNG", nil, ""
			r.Exception, r.Procedure, r.Mode = "timeout", store.UnknownProcedure, "DIRECT"
		} else {
			r.EndTime = r.Time.Add(3 * time.Millisecond)
		}
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 && i < 12 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pl := db.Explain(tracedb.Query{}); pl.TotalBlocks != 3 || pl.StagedTail != 2 {
		t.Fatalf("store holds %d blocks and %d staged records, want 3 and 2", pl.TotalBlocks, pl.StagedTail)
	}

	for _, tc := range []struct {
		name string
		sub  wire.Subscribe
		q    tracedb.Query
		// candidate and covered blocks the planner must pick for q, so the
		// case forwards blocks whole and sends others record by record.
		candidate, covered int
	}{
		{"blocks and staged tail", wire.Subscribe{Snapshot: true}, tracedb.Query{}, 3, 3},
		{"device filter, partly covered", wire.Subscribe{Snapshot: true, Device: "C9"}, tracedb.Query{Device: "C9"}, 2, 1},
		{"resume inside a written block", wire.Subscribe{ResumeFrom: 6}, tracedb.Query{MinSeq: 6}, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if pl := db.Explain(tc.q); pl.CandidateBlocks != tc.candidate || pl.CoveredBlocks != tc.covered {
				t.Fatalf("planner picks %d blocks, %d covered; want %d and %d",
					pl.CandidateBlocks, pl.CoveredBlocks, tc.candidate, tc.covered)
			}
			want, err := db.Collect(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			tc.sub.Policy = wire.PolicyBlock
			client, err := stream.Dial(addr, tc.sub)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.SetIdleTimeout(5 * time.Second)
			for i := range want {
				ev, err := client.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if ev.Kind != wire.EventTrace || ev.Record == nil || !reflect.DeepEqual(*ev.Record, want[i]) {
					t.Fatalf("snapshot record %d:\n got %+v\nwant %+v", i, ev.Record, want[i])
				}
				// Every C9 record was appended with a zero EndTime: seqs 0-3
				// reach the client in a forwarded block, 12 from the staged tail.
				if ev.Record.Device == "C9" && !ev.Record.EndTime.IsZero() {
					t.Fatalf("snapshot record seq %d: EndTime %v, want the zero time", ev.Record.Seq, ev.Record.EndTime)
				}
			}
			if ev, err := client.Recv(); err != nil || ev.Kind != wire.EventSnapshotEnd {
				t.Fatalf("after %d records want snapshot end, got %+v, %v", len(want), ev, err)
			}
		})
	}
}

// TestClientRejectsMalformedBlock: a block event whose bytes do not hold
// the records its count announces ends Recv with an error after the
// records that do decode — never a panic, and no room made for a count the
// bytes cannot hold.
func TestClientRejectsMalformedBlock(t *testing.T) {
	recs := []store.Record{
		{Seq: 0, Time: time.Unix(0, 1000), Device: "C9", Name: "MVNG", Args: []string{"x"}},
		{Seq: 1, Time: time.Unix(0, 2000), Device: "UR3e", Name: "movej", Run: "run-1"},
	}
	valid := store.AppendBlock(nil, recs)
	for _, tc := range []struct {
		name  string
		block []byte
		good  int // records Recv returns before the error
	}{
		{"count beyond its bytes", append(binary.AppendUvarint(nil, 1<<24), valid[1:]...), 0},
		{"truncated record", valid[:len(valid)-2], 1},
		{"bytes after the last record", append(append([]byte(nil), valid...), 0), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := serveFrames(t, wire.Event{Kind: wire.EventTrace, Block: tc.block})
			client, err := stream.Dial(addr, wire.Subscribe{})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.SetIdleTimeout(5 * time.Second)
			for i := 0; i < tc.good; i++ {
				if ev, err := client.Recv(); err != nil || !reflect.DeepEqual(*ev.Record, recs[i]) {
					t.Fatalf("record %d: %+v, %v", i, ev.Record, err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = client.Recv()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, store.ErrCorruptBlock) {
				t.Fatalf("Recv of the malformed record: %v, want %v", err, store.ErrCorruptBlock)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("rejecting the block allocated %d bytes, want under 1 MiB", n)
			}
		})
	}
}

// TestClientRecvBlockAllocationFree: draining a forwarded block of
// vocabulary-only records allocates nothing per record. Recv decodes each
// into the record the client owns, and every string is an intern-table
// word; what is left is reading the frame.
func TestClientRecvBlockAllocationFree(t *testing.T) {
	catalog := device.Catalog()
	recs := make([]store.Record, 4096)
	for i := range recs {
		spec := catalog[i%len(catalog)]
		start := time.Unix(1633105800, int64(i)*1000)
		recs[i] = store.Record{Seq: uint64(i), Time: start, EndTime: start.Add(time.Millisecond),
			Device: spec.Device, Name: spec.Name, Response: "ok", Procedure: "P2", Run: "replay", Mode: "REMOTE"}
	}
	addr := serveFrames(t, wire.Event{Kind: wire.EventTrace, Block: store.AppendBlock(nil, recs)})
	client, err := stream.Dial(addr, wire.Subscribe{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetIdleTimeout(5 * time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range recs {
		if ev, err := client.Recv(); err != nil || ev.Record == nil || ev.Record.Seq != uint64(i) {
			t.Fatalf("record %d: %+v, %v", i, ev.Record, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / float64(len(recs)); per >= 0.01 {
		t.Fatalf("draining a %d-record block: %.3f allocations per record, want under 0.01", len(recs), per)
	}
}

// serveFrames starts a listener that answers one subscription with frames
// and then holds the connection open until the client leaves.
func serveFrames(t *testing.T, frames ...wire.Event) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wc, err := wire.Accept(conn, nil)
		if err != nil {
			return
		}
		var sub wire.Subscribe
		if wc.ReadFrame(&sub) != nil {
			return
		}
		for _, f := range frames {
			if wc.WriteFrame(f) != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, conn)
	}()
	return ln.Addr().String()
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
