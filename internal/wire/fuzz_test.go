package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"rad/internal/power"
	"rad/internal/store"
)

// frame encodes v as one complete frame (length prefix included).
func frame(v any) []byte {
	var buf bytes.Buffer
	_ = NewConn(&buf, V2, nil).WriteFrame(v)
	return buf.Bytes()
}

// readFrame decodes one frame from data on a fresh connection.
func readFrame(data []byte, v any) error {
	return NewConn(bytes.NewBuffer(append([]byte(nil), data...)), V2, nil).ReadFrame(v)
}

// FuzzReadFrame hardens the middlebox's untrusted input path: arbitrary
// bytes must never panic or allocate unboundedly — they may only produce an
// error or a valid request.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: a valid frame, a truncated frame, garbage, an oversized
	// header, and an empty input.
	valid := frame(Request{ID: 1, Op: OpExec, Device: "C9", Name: "ARM", Args: []string{"1"}})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("garbage"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		_ = readFrame(data, &req) // must not panic
	})
}

// FuzzFrameRoundTrip: any request that encodes must decode to itself, with
// its framing — the length prefix — included.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), "C9", "ARM", "1|2|3", "ok", "")
	f.Add(uint64(0), "", "", "", "", "some error")
	f.Fuzz(func(t *testing.T, id uint64, dev, name, args, value, errStr string) {
		in := Request{ID: id, Op: OpExec, Device: dev, Name: name, Value: value, Error: errStr}
		if args != "" {
			in.Args = []string{args}
		}
		var buf bytes.Buffer
		c := NewConn(&buf, V2, nil)
		if err := c.WriteFrame(in); err != nil {
			t.Skip() // oversized inputs are rejected by design
		}
		var out Request
		if err := c.ReadFrame(&out); err != nil {
			t.Fatalf("decode of just-encoded frame: %v", err)
		}
		if out.ID != in.ID || out.Device != in.Device || out.Name != in.Name ||
			out.Value != in.Value || out.Error != in.Error {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
		}
	})
}

// FuzzSubscribeFrame hardens the stream listener's untrusted input path: an
// arbitrary byte string decoded as a Subscribe frame must never panic, and
// whatever decodes must either fail Validate or be a well-formed
// subscription (recognised policy, non-negative buffer).
func FuzzSubscribeFrame(f *testing.F) {
	f.Add(frame(Subscribe{Op: OpSubscribe, Name: "watch", Device: "UR3e",
		Snapshot: true, Policy: PolicyBlock, Buffer: 128}))
	f.Add(frame(Subscribe{Op: "exec"}))
	f.Add(frame(Subscribe{Op: OpSubscribe, Policy: "bogus"}))
	f.Add(frame(Subscribe{Op: OpSubscribe, Buffer: -5}))
	f.Add([]byte("garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Subscribe
		if err := readFrame(data, &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		// Everything Validate accepts must be safe for the server to act on.
		if req.Op != OpSubscribe {
			t.Fatalf("validated subscribe with op %q", req.Op)
		}
		if req.Policy != "" && req.Policy != PolicyDropOldest && req.Policy != PolicyBlock {
			t.Fatalf("validated unknown policy %q", req.Policy)
		}
		if req.Buffer < 0 {
			t.Fatalf("validated negative buffer %d", req.Buffer)
		}
	})
}

// FuzzSubscribeResumeFrame hardens the exactly-once resume path end to end:
// a Subscribe carrying any ResumeFrom value must round-trip to exactly
// itself (including the zero value, which decodes as "no resume"), and
// arbitrary bytes decoded as a resume subscription must never panic —
// whatever decodes either fails Validate or is safe for the server to plan
// a replay from.
func FuzzSubscribeResumeFrame(f *testing.F) {
	f.Add(uint64(0), "watch", false, []byte{})
	f.Add(uint64(1), "resume", true, []byte("garbage"))
	f.Add(uint64(1)<<32, "", false, []byte{0x03, binSubscribe, subResume, 0xff})
	f.Add(^uint64(0), "max", true, []byte{0x02, binSubscribe, subResume})
	f.Add(uint64(7), "w", false, frame(Subscribe{Op: OpSubscribe, Name: "w", ResumeFrom: 7}))
	f.Add(uint64(7), "w", true, frame(Subscribe{Op: OpSubscribe, Name: "w", ResumeFrom: 7, Snapshot: true, Buffer: -1}))

	f.Fuzz(func(t *testing.T, resumeFrom uint64, name string, snapshot bool, data []byte) {
		in := Subscribe{Op: OpSubscribe, Name: name, ResumeFrom: resumeFrom, Snapshot: snapshot}
		payload, err := appendBinaryFrame(nil, &in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var out Subscribe
		if err := decodeBinaryFrame(payload, &out); err != nil {
			t.Fatalf("decode of just-encoded resume subscribe: %v (payload % x)", err, payload)
		}
		if out.ResumeFrom != resumeFrom {
			t.Fatalf("resume round trip: got %d want %d", out.ResumeFrom, resumeFrom)
		}

		// Hardening: arbitrary bytes on the reader must produce a
		// subscription or an error, never a panic; anything Validate accepts
		// must be a well-formed resume request.
		var got Subscribe
		if err := readFrame(data, &got); err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			return
		}
		if got.Op != OpSubscribe {
			t.Fatalf("validated resume subscribe with op %q", got.Op)
		}
		if got.Buffer < 0 {
			t.Fatalf("validated negative buffer %d", got.Buffer)
		}
	})
}

// FuzzTraceContextFrame pins the trace-context propagation contract: the
// TraceID/SpanID pair on Request and Event must survive the codec exactly
// (a tagged uvarint pair, omitted when zero), a zero pair must add zero
// bytes to the frame — the wire must cost nothing for untraced peers — and
// arbitrary bytes on the reader must never panic.
func FuzzTraceContextFrame(f *testing.F) {
	f.Add(uint64(0), uint64(0), "C9", []byte{})
	f.Add(uint64(1), uint64(2), "ARM", []byte("garbage"))
	f.Add(^uint64(0), uint64(1)<<63, "", []byte{0x03, binRequest, reqTraceID, 0xff})
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(7), "move_joints", []byte{0x02, binEvent, evSpanID})
	f.Add(uint64(5), uint64(6), "w", frame(Request{ID: 1, Op: OpExec, TraceID: 5, SpanID: 6}))
	f.Add(uint64(5), uint64(6), "e", frame(Event{Kind: EventTrace, TraceID: 5, SpanID: 6}))

	f.Fuzz(func(t *testing.T, traceID, spanID uint64, name string, data []byte) {
		req := Request{ID: 1, Op: OpExec, Device: "C9", Name: name, TraceID: traceID, SpanID: spanID}
		ev := Event{Kind: EventTrace, TraceID: traceID, SpanID: spanID}

		for _, pair := range []struct {
			in  any
			out any
		}{{&req, new(Request)}, {&ev, new(Event)}} {
			payload, err := appendBinaryFrame(nil, pair.in)
			if err != nil {
				t.Fatalf("encode %T: %v", pair.in, err)
			}
			if err := decodeBinaryFrame(payload, pair.out); err != nil {
				t.Fatalf("decode of just-encoded %T: %v (payload % x)", pair.in, err, payload)
			}
			if !reflect.DeepEqual(pair.out, pair.in) {
				t.Fatalf("trace context round trip:\n got %+v\nwant %+v", pair.out, pair.in)
			}
		}

		// The zero pair must be free on the wire: an untraced frame encodes
		// to exactly the bytes it produced before tracing existed.
		if traceID != 0 || spanID != 0 {
			traced, _ := appendBinaryFrame(nil, &req)
			bare := req
			bare.TraceID, bare.SpanID = 0, 0
			untraced, _ := appendBinaryFrame(nil, &bare)
			if len(traced) <= len(untraced) {
				t.Fatalf("traced frame (%d bytes) not larger than untraced (%d)", len(traced), len(untraced))
			}
		}

		// Hardening: arbitrary bytes on the reader must produce a frame or an
		// error, never a panic.
		for _, dst := range []any{new(Request), new(Event)} {
			_ = readFrame(data, dst)
		}
	})
}

// FuzzPooledFrameSequence hardens the buffer pooling: a long frame followed
// by shorter frames reuses the same pooled buffers, and every frame must
// still round-trip to exactly itself — no byte of one frame may leak into
// the next. A stale pooled-buffer length, a missed Reset, or a header
// patched at the wrong offset all fail this target.
func FuzzPooledFrameSequence(f *testing.F) {
	f.Add("C9", "a long argument string that forces buffer growth", "x", uint64(3))
	f.Add("", "", "", uint64(0))
	f.Add("Quantos", "αβγ", strings.Repeat("z", 2000), uint64(9))
	f.Fuzz(func(t *testing.T, dev, long, short string, id uint64) {
		// Alternate a large and a small frame several times through one
		// buffer so pooled encode and decode buffers get reused with
		// different prior contents.
		frames := []Request{
			{ID: id, Op: OpExec, Device: dev, Name: "ARM", Args: []string{long, long}},
			{ID: id + 1, Op: OpTrace, Device: dev, Name: "MVNG", Value: short},
			{ID: id + 2, Op: OpPing},
			{ID: id + 3, Op: OpExec, Device: dev, Name: "ARM", Value: long, Error: short},
			{ID: id + 4, Op: OpTrace, Name: short},
		}
		var buf bytes.Buffer
		c := NewConn(&buf, V2, nil)
		for round := 0; round < 3; round++ {
			for i, in := range frames {
				if err := c.WriteFrame(in); err != nil {
					t.Skip() // oversized inputs are rejected by design
				}
				var out Request
				if err := c.ReadFrame(&out); err != nil {
					t.Fatalf("round %d frame %d: decode: %v", round, i, err)
				}
				if !reflect.DeepEqual(out, in) {
					t.Fatalf("round %d frame %d: cross-frame leakage: got %+v want %+v",
						round, i, out, in)
				}
				if n := buf.Len() + c.br.Buffered(); n != 0 {
					t.Fatalf("round %d frame %d: %d trailing bytes after decode",
						round, i, n)
				}
			}
		}
	})
}

// FuzzBinaryFrameRoundTrip: every frame type built from arbitrary
// primitives must decode back to exactly itself. There is no UTF-8 skip —
// the binary codec carries arbitrary byte strings verbatim.
func FuzzBinaryFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), "C9", "ARM", "1|2", "ok", "", int64(100), true, uint64(0), 0.0)
	f.Add(uint64(0), "", "", "", "", "err", int64(-5), false, uint64(9), -1.5)
	f.Add(uint64(1<<63), "UR3e", "move_joints", "\xff\xfe", "π", "trace", int64(1633078800123456789), true, uint64(1<<40), 1e300)
	f.Fuzz(func(t *testing.T, id uint64, dev, name, arg, value, errStr string,
		nanos int64, flag bool, count uint64, val float64) {
		when := time.Unix(0, nanos).UTC()
		var args []string
		if arg != "" {
			args = []string{arg, arg}
		}
		frames := []any{
			&Request{ID: id, Op: OpExec, Device: dev, Name: name, Args: args,
				Value: value, Error: errStr, StartNanos: nanos, EndNanos: -nanos,
				Procedure: "P1", Run: value, TraceID: count, SpanID: id},
			&Reply{ID: id, Value: value, Error: errStr},
			&Subscribe{Op: OpSubscribe, Name: name, Device: dev, Key: value,
				Snapshot: flag, Power: !flag, Policy: PolicyDropOldest, Buffer: int(uint32(count))},
			&Event{Kind: EventTrace, Dropped: count, TraceID: count, SpanID: id,
				Record: &store.Record{
					Seq: id, Time: when, EndTime: when, Device: dev, Name: name,
					Args: args, Response: value, Exception: errStr, Mode: "REMOTE"}},
			&Event{Kind: EventPower, Sample: &power.Sample{Time: when, Values: []float64{val, -val, 0}}},
		}
		for _, in := range frames {
			payload, err := appendBinaryFrame(nil, in)
			if err != nil {
				t.Fatalf("encode %T: %v", in, err)
			}
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := decodeBinaryFrame(payload, out); err != nil {
				t.Fatalf("decode of just-encoded %T: %v (payload % x)", in, err, payload)
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
			}
		}
	})
}

// FuzzBinaryReadFrame hardens the listener path for every message type:
// arbitrary bytes through a connection must produce a frame or an error,
// never a panic or an unbounded allocation (every announced length is
// validated against the bytes actually present).
func FuzzBinaryReadFrame(f *testing.F) {
	valid := frame(Request{ID: 1, Op: OpExec, Device: "C9", Name: "ARM", Args: []string{"1"}})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte{0x01, binRequest})
	f.Add([]byte{0x03, binRequest, reqArgs, 0xff}) // lying element count
	f.Add([]byte{0x00})                            // empty frame
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dst := range []any{new(Request), new(Reply), new(Subscribe), new(Event)} {
			_ = readFrame(data, dst) // must not panic
		}
	})
}
