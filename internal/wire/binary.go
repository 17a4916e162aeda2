package wire

// The compact binary frame codec.
//
// Once the middlebox exec path itself costs a few hundred nanoseconds, a
// reflective JSON codec is the dominant per-request tax. This one is a
// hand-rolled tagged binary encoding that does zero reflection and (on the
// hot request/reply path) ~zero allocations per frame:
//
//	frame   := uvarint(len) payload        // len ≤ MaxFrameSize
//	payload := type field* [end]
//	field   := tag value                   // value shape fixed per tag
//
// The type byte names the message (Request, Reply, Subscribe, Event);
// fields carry explicit tags so zero-valued fields are simply omitted
// (one tag byte instead of a quoted JSON key) and decoding is a
// tag-dispatch loop, never a reflected field walk. The top level needs no
// terminator because the frame length delimits it. An Event's record is
// its tag followed by store's record encoding (store.AppendRecord), the
// bytes tracedb stores, which delimits itself; its block is a
// length-prefixed store block, the bytes of a stored block, and is always
// the frame's last field; its power sample is a nested tag stream closed
// by the reserved end tag 0.
//
// Value shapes: uvarint (counters, lengths), zigzag varint (signed nanos),
// length-prefixed UTF-8 bytes (strings), and raw little-endian float64
// bits (power samples). A time is an instant: varint UnixNano, decoded
// with time.Unix, so neither zone nor monotonic reading survives — the
// same rule the record encoding follows. Times outside the UnixNano range
// (years ≲1678 or ≳2262) are not representable — device traces are always
// inside it.
//
// Decoding interns every string through store's intern table (store.Intern),
// which holds the protocol's fixed words — ops, event kinds, policies —
// and store.Vocabulary (the 52-command catalog, procedure labels, modes),
// so the strings on the hot path resolve to shared instances instead of
// fresh allocations. Interning is a perf heuristic only: unknown strings
// are simply copied.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"rad/internal/power"
	"rad/internal/store"
)

// Binary frame type bytes.
const (
	binRequest byte = iota + 1
	binReply
	binSubscribe
	binEvent
	binPing
	binPong
)

// Request field tags.
const (
	reqID byte = iota + 1
	reqOp
	reqDevice
	reqName
	reqArgs
	reqValue
	reqError
	reqStart
	reqEnd
	reqProcedure
	reqRun
	reqTenant
	reqTraceID
	reqSpanID
)

// Reply field tags.
const (
	repID byte = iota + 1
	repValue
	repError
)

// Subscribe field tags.
const (
	subOp byte = iota + 1
	subName
	subDevice
	subKey
	subProcedure
	subRun
	subSnapshot
	subPower
	subPolicy
	subBuffer
	subTenant
	subResume
)

// Event field tags.
const (
	evKind byte = iota + 1
	evRecord
	evSample
	evDropped
	evError
	evGap
	evTraceID
	evSpanID
	evBlock
)

// Ping/Pong field tags (both frames share the one-field shape).
const (
	pingSeq byte = iota + 1
)

// power.Sample field tags (nested inside an Event).
const (
	sampTime byte = iota + 1
	sampValues
)

// ---------------------------------------------------------------------------
// Append-encoders. All of them grow dst in place and never fail; size
// enforcement happens once, on the finished frame.

func putUint(b []byte, tag byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, tag)
	return binary.AppendUvarint(b, v)
}

func putInt(b []byte, tag byte, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, tag)
	return binary.AppendVarint(b, v)
}

func putStr(b []byte, tag byte, s string) []byte {
	if s == "" {
		return b
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putStrs(b []byte, tag byte, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// putBool encodes true as the bare tag; false is omitted.
func putBool(b []byte, tag byte, v bool) []byte {
	if !v {
		return b
	}
	return append(b, tag)
}

func appendRequest(b []byte, q *Request) []byte {
	b = append(b, binRequest)
	b = putUint(b, reqID, q.ID)
	b = putStr(b, reqOp, string(q.Op))
	b = putStr(b, reqDevice, q.Device)
	b = putStr(b, reqName, q.Name)
	b = putStrs(b, reqArgs, q.Args)
	b = putStr(b, reqValue, q.Value)
	b = putStr(b, reqError, q.Error)
	b = putInt(b, reqStart, q.StartNanos)
	b = putInt(b, reqEnd, q.EndNanos)
	b = putStr(b, reqProcedure, q.Procedure)
	b = putStr(b, reqRun, q.Run)
	b = putStr(b, reqTenant, q.Tenant)
	b = putUint(b, reqTraceID, q.TraceID)
	b = putUint(b, reqSpanID, q.SpanID)
	return b
}

func appendReply(b []byte, p *Reply) []byte {
	b = append(b, binReply)
	b = putUint(b, repID, p.ID)
	b = putStr(b, repValue, p.Value)
	b = putStr(b, repError, p.Error)
	return b
}

func appendSubscribe(b []byte, s *Subscribe) []byte {
	b = append(b, binSubscribe)
	b = putStr(b, subOp, string(s.Op))
	b = putStr(b, subName, s.Name)
	b = putStr(b, subDevice, s.Device)
	b = putStr(b, subKey, s.Key)
	b = putStr(b, subProcedure, s.Procedure)
	b = putStr(b, subRun, s.Run)
	b = putBool(b, subSnapshot, s.Snapshot)
	b = putBool(b, subPower, s.Power)
	b = putStr(b, subPolicy, s.Policy)
	b = putInt(b, subBuffer, int64(s.Buffer))
	b = putStr(b, subTenant, s.Tenant)
	b = putUint(b, subResume, s.ResumeFrom)
	return b
}

// appendEvent encodes every field of e except the block bytes themselves:
// the block is the last field, and its tag and length end the output, so
// the caller appends e.Block, or writes it from e.Block without copying it
// (Conn.BufferBlock).
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, binEvent)
	b = putStr(b, evKind, e.Kind)
	if e.Record != nil {
		b = append(b, evRecord)
		b = store.AppendRecord(b, e.Record)
	}
	if e.Sample != nil {
		b = append(b, evSample)
		b = appendSampleBody(b, e.Sample)
	}
	b = putUint(b, evDropped, e.Dropped)
	b = putStr(b, evError, e.Error)
	b = putUint(b, evGap, e.Gap)
	b = putUint(b, evTraceID, e.TraceID)
	b = putUint(b, evSpanID, e.SpanID)
	if len(e.Block) > 0 {
		b = append(b, evBlock)
		b = binary.AppendUvarint(b, uint64(len(e.Block)))
	}
	return b
}

// appendPingPong encodes a Ping or Pong: the type byte plus the (omitted
// when zero) sequence field.
func appendPingPong(b []byte, typ byte, seq uint64) []byte {
	b = append(b, typ)
	return putUint(b, pingSeq, seq)
}

// appendSampleBody encodes a nested sample: a non-zero time as its
// UnixNano instant, the values, then the end tag.
func appendSampleBody(b []byte, s *power.Sample) []byte {
	if !s.Time.IsZero() {
		b = append(b, sampTime)
		b = binary.AppendVarint(b, s.Time.UnixNano())
	}
	if len(s.Values) > 0 {
		b = append(b, sampValues)
		b = binary.AppendUvarint(b, uint64(len(s.Values)))
		for _, v := range s.Values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return append(b, 0)
}

// appendBinaryFrame appends v's binary payload (type byte + fields, no
// length prefix) to dst.
func appendBinaryFrame(dst []byte, v any) ([]byte, error) {
	switch f := v.(type) {
	case *Request:
		return appendRequest(dst, f), nil
	case Request:
		return appendRequest(dst, &f), nil
	case *Reply:
		return appendReply(dst, f), nil
	case Reply:
		return appendReply(dst, &f), nil
	case *Subscribe:
		return appendSubscribe(dst, f), nil
	case Subscribe:
		return appendSubscribe(dst, &f), nil
	case *Event:
		return append(appendEvent(dst, f), f.Block...), nil
	case Event:
		return append(appendEvent(dst, &f), f.Block...), nil
	case *Ping:
		return appendPingPong(dst, binPing, f.Seq), nil
	case Ping:
		return appendPingPong(dst, binPing, f.Seq), nil
	case *Pong:
		return appendPingPong(dst, binPong, f.Seq), nil
	case Pong:
		return appendPingPong(dst, binPong, f.Seq), nil
	default:
		// Name the type with reflect.TypeOf, not %T: handing v itself to
		// fmt would make every caller's frame escape to the heap.
		return dst, fmt.Errorf("wire: binary codec cannot encode %v", reflect.TypeOf(v))
	}
}

// ---------------------------------------------------------------------------
// Decoder. A sticky-error byte reader over the frame payload: every length
// is validated against the bytes actually present before any allocation, so
// a malicious header can make the decoder fail, never over-allocate.

type breader struct {
	b   []byte
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary frame: "+format, args...)
	}
}

// tag returns the next field tag, or 0 at a message end (explicit end tag
// or payload exhaustion).
func (r *breader) tag() byte {
	if r.err != nil || len(r.b) == 0 {
		return 0
	}
	t := r.b[0]
	r.b = r.b[1:]
	return t
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *breader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *breader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes announced with %d left", n, len(r.b))
		return ""
	}
	s := store.Intern(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *breader) strs() []string {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each element costs at least one length byte, so a count beyond the
	// remaining payload is a lie; reject it before allocating.
	if n > uint64(len(r.b)) {
		r.fail("string slice of %d elements announced with %d bytes left", n, len(r.b))
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.str())
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *breader) floats() []float64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b))/8 {
		r.fail("float slice of %d elements announced with %d bytes left", n, len(r.b))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[i*8:]))
	}
	r.b = r.b[n*8:]
	return out
}

func decodeRequest(r *breader, q *Request) {
	*q = Request{}
	for {
		switch t := r.tag(); t {
		case 0:
			return
		case reqID:
			q.ID = r.uvarint()
		case reqOp:
			q.Op = Op(r.str())
		case reqDevice:
			q.Device = r.str()
		case reqName:
			q.Name = r.str()
		case reqArgs:
			q.Args = r.strs()
		case reqValue:
			q.Value = r.str()
		case reqError:
			q.Error = r.str()
		case reqStart:
			q.StartNanos = r.varint()
		case reqEnd:
			q.EndNanos = r.varint()
		case reqProcedure:
			q.Procedure = r.str()
		case reqRun:
			q.Run = r.str()
		case reqTenant:
			q.Tenant = r.str()
		case reqTraceID:
			q.TraceID = r.uvarint()
		case reqSpanID:
			q.SpanID = r.uvarint()
		default:
			r.fail("request: unknown field tag %d", t)
			return
		}
		if r.err != nil {
			return
		}
	}
}

func decodeReply(r *breader, p *Reply) {
	*p = Reply{}
	for {
		switch t := r.tag(); t {
		case 0:
			return
		case repID:
			p.ID = r.uvarint()
		case repValue:
			p.Value = r.str()
		case repError:
			p.Error = r.str()
		default:
			r.fail("reply: unknown field tag %d", t)
			return
		}
		if r.err != nil {
			return
		}
	}
}

func decodeSubscribe(r *breader, s *Subscribe) {
	*s = Subscribe{}
	for {
		switch t := r.tag(); t {
		case 0:
			return
		case subOp:
			s.Op = Op(r.str())
		case subName:
			s.Name = r.str()
		case subDevice:
			s.Device = r.str()
		case subKey:
			s.Key = r.str()
		case subProcedure:
			s.Procedure = r.str()
		case subRun:
			s.Run = r.str()
		case subSnapshot:
			s.Snapshot = true
		case subPower:
			s.Power = true
		case subPolicy:
			s.Policy = r.str()
		case subBuffer:
			s.Buffer = int(r.varint())
		case subTenant:
			s.Tenant = r.str()
		case subResume:
			s.ResumeFrom = r.uvarint()
		default:
			r.fail("subscribe: unknown field tag %d", t)
			return
		}
		if r.err != nil {
			return
		}
	}
}

// decodeEvent decodes into e. A record is decoded into the one e.Record
// points at on entry, if any, rather than a new one; a block is not copied:
// e.Block aliases the payload.
func decodeEvent(r *breader, e *Event) {
	rec := e.Record
	*e = Event{}
	for {
		switch t := r.tag(); t {
		case 0:
			return
		case evKind:
			e.Kind = r.str()
		case evRecord:
			if rec == nil {
				rec = new(store.Record)
			}
			n, ok := store.DecodeRecord(r.b, rec)
			if !ok {
				r.fail("event: malformed record")
				return
			}
			r.b = r.b[n:]
			e.Record = rec
		case evSample:
			s := new(power.Sample)
			decodeSampleBody(r, s)
			e.Sample = s
		case evDropped:
			e.Dropped = r.uvarint()
		case evError:
			e.Error = r.str()
		case evGap:
			e.Gap = r.uvarint()
		case evTraceID:
			e.TraceID = r.uvarint()
		case evSpanID:
			e.SpanID = r.uvarint()
		case evBlock:
			n := r.uvarint()
			if r.err != nil {
				return
			}
			if n == 0 || n > uint64(len(r.b)) {
				r.fail("event: block of %d bytes announced with %d left", n, len(r.b))
				return
			}
			e.Block = r.b[:n:n]
			r.b = r.b[n:]
		default:
			r.fail("event: unknown field tag %d", t)
			return
		}
		if r.err != nil {
			return
		}
	}
}

// decodePingPong reads the shared Ping/Pong field stream into seq.
func decodePingPong(r *breader, what string, seq *uint64) {
	*seq = 0
	for {
		switch t := r.tag(); t {
		case 0:
			return
		case pingSeq:
			*seq = r.uvarint()
		default:
			r.fail("%s: unknown field tag %d", what, t)
			return
		}
		if r.err != nil {
			return
		}
	}
}

func decodeSampleBody(r *breader, s *power.Sample) {
	for {
		switch t := r.tag(); t {
		case 0:
			return
		case sampTime:
			s.Time = time.Unix(0, r.varint())
		case sampValues:
			s.Values = r.floats()
		default:
			r.fail("sample: unknown field tag %d", t)
			return
		}
		if r.err != nil {
			return
		}
	}
}

var errEmptyBinaryFrame = errors.New("wire: empty binary frame")

// decodeBinaryFrame decodes one complete binary payload into v, which
// must point at the frame type the payload carries — a mismatch is a
// protocol error, reported precisely rather than producing a half-filled
// struct.
func decodeBinaryFrame(payload []byte, v any) error {
	if len(payload) == 0 {
		return errEmptyBinaryFrame
	}
	typ := payload[0]
	r := &breader{b: payload[1:]}
	switch dst := v.(type) {
	case *Request:
		if typ != binRequest {
			return fmt.Errorf("wire: binary frame type %#02x, want request (%#02x)", typ, binRequest)
		}
		decodeRequest(r, dst)
	case *Reply:
		if typ != binReply {
			return fmt.Errorf("wire: binary frame type %#02x, want reply (%#02x)", typ, binReply)
		}
		decodeReply(r, dst)
	case *Subscribe:
		if typ != binSubscribe {
			return fmt.Errorf("wire: binary frame type %#02x, want subscribe (%#02x)", typ, binSubscribe)
		}
		decodeSubscribe(r, dst)
	case *Event:
		if typ != binEvent {
			return fmt.Errorf("wire: binary frame type %#02x, want event (%#02x)", typ, binEvent)
		}
		decodeEvent(r, dst)
	case *Ping:
		if typ != binPing {
			return fmt.Errorf("wire: binary frame type %#02x, want ping (%#02x)", typ, binPing)
		}
		decodePingPong(r, "ping", &dst.Seq)
	case *Pong:
		if typ != binPong {
			return fmt.Errorf("wire: binary frame type %#02x, want pong (%#02x)", typ, binPong)
		}
		decodePingPong(r, "pong", &dst.Seq)
	case *TailFrame:
		// The tail direction is a union: data events interleaved with
		// liveness pings, discriminated by the frame type byte. An Event
		// the caller set before the read is the decode target.
		ev := dst.Event
		*dst = TailFrame{}
		switch typ {
		case binEvent:
			if ev == nil {
				ev = new(Event)
			}
			decodeEvent(r, ev)
			dst.Event = ev
		case binPing:
			dst.Ping = new(Ping)
			decodePingPong(r, "ping", &dst.Ping.Seq)
		default:
			return fmt.Errorf("wire: binary frame type %#02x, want event (%#02x) or ping (%#02x)", typ, binEvent, binPing)
		}
	default:
		// reflect.TypeOf, not %T, keeps v from escaping; see appendBinaryFrame.
		return fmt.Errorf("wire: binary codec cannot decode into %v", reflect.TypeOf(v))
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: binary frame: %d trailing bytes after message end", len(r.b))
	}
	return nil
}
