//go:build !race

package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"rad/internal/store"
)

// loopReader serves one frame's bytes over and over, so ReadFrame can be
// measured in steady state; writes are discarded.
type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func (l *loopReader) Write(p []byte) (int, error) { return len(p), nil }

// TestWireV2FrameAllocs pins the codec's ~zero-allocation claim where it is
// exact: writing a frame through a Conn allocates nothing, whether the
// caller passes a value or a pointer, and reading a frame whose strings are
// protocol vocabulary allocates nothing (interning hands back shared
// instances). A block frame costs nothing either way: written, its block
// sent from the caller's slice, and read, once the connection's read
// buffer has grown to it. Frames carrying novel strings or slices pay only
// for those values. Excluded under -race: the detector's instrumentation
// shifts allocation counts.
func TestWireV2FrameAllocs(t *testing.T) {
	req := Request{ID: 42, Op: OpExec, Device: "UR3e", Name: "move_joints",
		Args: []string{"0.5", "-1.2"}, Procedure: "P2", Run: "bench"}
	rep := Reply{ID: 42, Value: "ok"}

	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = appendBinaryFrame(buf[:0], &req)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = appendBinaryFrame(buf, &rep)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("encode request+reply: %.1f allocs/op, want 0", n)
	}

	// Through a Conn: the frame handed to WriteFrame must not escape, so a
	// value-typed message or an event pointing at a local record costs no
	// allocation, and the pooled output buffer is reused.
	w := NewConn(struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), io.Discard}, V2, nil)
	rec := store.Record{Seq: 7, Time: time.Unix(0, 1), EndTime: time.Unix(0, 2),
		Device: "UR3e", Name: "move_joints", Args: []string{"0.5"}, Procedure: "P2"}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"request", func() error { return w.WriteFrame(req) }},
		{"reply", func() error { return w.WriteFrame(Reply{ID: 42, Value: "ok"}) }},
		{"event", func() error {
			r := rec
			return w.WriteFrame(Event{Kind: EventTrace, Record: &r})
		}},
	} {
		if n := testing.AllocsPerRun(200, func() {
			if err := tc.write(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Conn.WriteFrame(%s): %.1f allocs/op, want 0", tc.name, n)
		}
	}

	// A block of any size goes out from the caller's slice in one vectored
	// write.
	recs := make([]store.Record, 2000)
	for i := range recs {
		recs[i] = rec
		recs[i].Seq = uint64(i)
	}
	small, large := store.AppendBlock(nil, recs[:10]), store.AppendBlock(nil, recs)
	if len(large) <= pooledLimit {
		t.Fatalf("large block of %d bytes is not above the pooled frame size", len(large))
	}
	for _, tc := range []struct {
		name  string
		block []byte
	}{{"small", small}, {"large", large}} {
		if n := testing.AllocsPerRun(200, func() {
			if err := w.BufferBlock(tc.block); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Conn.BufferBlock(%s block): %.1f allocs/op, want 0", tc.name, n)
		}

		// Reading it back allocates no payload buffer per frame: the block
		// aliases the connection's read buffer.
		bc := NewConn(&loopReader{frame: frame(Event{Kind: EventTrace, Block: tc.block})}, V2, nil)
		var ev Event
		if n := testing.AllocsPerRun(200, func() {
			tf := TailFrame{Event: &ev}
			if err := bc.ReadFrame(&tf); err != nil || !bytes.Equal(ev.Block, tc.block) {
				t.Fatalf("ReadFrame(%s block): %d bytes, %v", tc.name, len(ev.Block), err)
			}
		}); n != 0 {
			t.Errorf("Conn.ReadFrame(%s block): %.1f allocs/op, want 0", tc.name, n)
		}
	}

	// A reply's strings are interned vocabulary: decoding is allocation-free.
	payload, err := appendBinaryFrame(nil, &rep)
	if err != nil {
		t.Fatal(err)
	}
	var out Reply
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeBinaryFrame(payload, &out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode reply: %.1f allocs/op, want 0", n)
	}
	frame := append([]byte{byte(len(payload))}, payload...)
	rc := NewConn(&loopReader{frame: frame}, V2, nil)
	if n := testing.AllocsPerRun(200, func() {
		var got Reply
		if err := rc.ReadFrame(&got); err != nil || got != rep {
			t.Fatalf("ReadFrame: %+v, %v", got, err)
		}
	}); n != 0 {
		t.Errorf("Conn.ReadFrame(reply): %.1f allocs/op, want 0", n)
	}

	// A request pays only for its novel values: the args slice, its two
	// non-vocabulary strings, and the run label — four allocations, while
	// op, device, command name, and procedure come from the intern table.
	reqPayload, err := appendBinaryFrame(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var outReq Request
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeBinaryFrame(reqPayload, &outReq); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("decode request with 3 novel strings: %.1f allocs/op, want <= 4", n)
	}
}
