package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rad/internal/power"
	"rad/internal/store"
)

// pair returns two Conns talking to each other through in-memory buffers:
// what cli writes, srv reads, and vice versa.
func pair() (cli, srv *Conn) {
	var toSrv, toCli bytes.Buffer
	cli = NewConn(rwPair{r: &toCli, w: &toSrv}, V2, nil)
	srv = NewConn(rwPair{r: &toSrv, w: &toCli}, V2, nil)
	return cli, srv
}

type rwPair struct {
	r io.Reader
	w io.Writer
}

func (p rwPair) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p rwPair) Write(b []byte) (int, error) { return p.w.Write(b) }

// sampleRecord exercises every Record field, including a non-trivial zone
// offset and arguments outside the interned vocabulary.
func sampleRecord() *store.Record {
	loc := time.FixedZone("", -7*3600)
	return &store.Record{
		Seq:       91,
		Time:      time.Unix(0, 1633078800123456789).In(loc),
		EndTime:   time.Unix(0, 1633078800987654321).In(loc),
		Device:    "UR3e",
		Name:      "move_joints",
		Args:      []string{"0.5", "-1.2", "ünïcödé", ""},
		Response:  "ok",
		Exception: "front door crashed",
		Procedure: "P2",
		Run:       "2021-10-01-a",
		Mode:      "DIRECT",
	}
}

func TestBinaryFrameRoundTrip(t *testing.T) {
	frames := []any{
		&Request{ID: 7, Op: OpExec, Device: "C9", Name: "ARM", Args: []string{"10", "20", "30"},
			Value: "ok", Error: "boom", StartNanos: 100, EndNanos: -250, Procedure: "P1", Run: "r1"},
		&Request{}, // all fields zero: one type byte on the wire
		&Reply{ID: 3, Value: "MVNG 0 0 0 0", Error: "nope"},
		&Subscribe{Op: OpSubscribe, Name: "watch", Device: "UR3e", Key: "UR3e.movej",
			Procedure: "P4", Run: "r2", Snapshot: true, Power: true, Policy: PolicyBlock, Buffer: 128},
		&Event{Kind: EventTrace, Record: sampleRecord(), Dropped: 4},
		&Event{Kind: EventPower, Sample: &power.Sample{
			Time:   time.Unix(0, 1633078801000000000).UTC(),
			Values: []float64{0.25, -1.5, 3.75, 0, 1e-9, 1e9},
		}},
		&Event{Kind: EventSnapshotEnd},
		&Event{Kind: EventError, Error: "subscription failed"},
	}
	for _, in := range frames {
		t.Run(fmt.Sprintf("%T", in), func(t *testing.T) {
			cli, srv := pair()
			if err := cli.WriteFrame(in); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
			if err := srv.ReadFrame(out); err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if !reflect.DeepEqual(out, in) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, in)
			}
		})
	}
}

// TestBinaryFrameTimeSemantics pins what the time codec preserves: the
// instant and the zone offset — exactly what an RFC 3339 round trip keeps.
func TestBinaryFrameTimeSemantics(t *testing.T) {
	in := time.Date(2021, 10, 1, 9, 30, 0, 123456789, time.FixedZone("PDT", -7*3600))
	cli, srv := pair()
	if err := cli.WriteFrame(&Event{Kind: EventTrace, Record: &store.Record{Time: in}}); err != nil {
		t.Fatal(err)
	}
	var out Event
	if err := srv.ReadFrame(&out); err != nil {
		t.Fatal(err)
	}
	got := out.Record.Time
	if !got.Equal(in) {
		t.Errorf("instant not preserved: got %v want %v", got, in)
	}
	_, wantOff := in.Zone()
	if _, off := got.Zone(); off != wantOff {
		t.Errorf("zone offset = %d, want %d", off, wantOff)
	}
	// The zero time is omitted and decodes back to the zero time, not 1970.
	if err := cli.WriteFrame(&Event{Kind: EventTrace, Record: &store.Record{}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReadFrame(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Record.Time.IsZero() {
		t.Errorf("zero time decoded as %v", out.Record.Time)
	}
}

// TestBinaryFrameTypeMismatch: a frame decoded into the wrong message type
// is a precise protocol error, not a half-filled struct.
func TestBinaryFrameTypeMismatch(t *testing.T) {
	cli, srv := pair()
	if err := cli.WriteFrame(Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var rep Reply
	err := srv.ReadFrame(&rep)
	if err == nil || !strings.Contains(err.Error(), "want reply") {
		t.Errorf("type mismatch err = %v", err)
	}
}

// TestBinaryFrameMalformedPayloads drives the decoder's length validation:
// truncated varints, lying lengths, and unknown tags must all produce clean
// errors without over-allocating.
func TestBinaryFrameMalformedPayloads(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown type", []byte{0x7f}},
		{"unknown tag", []byte{binRequest, 0x63}},
		{"truncated uvarint", []byte{binRequest, reqID, 0x80}},
		{"string length lies", []byte{binRequest, reqDevice, 0x7f, 'C'}},
		{"slice count lies", []byte{binRequest, reqArgs, 0x7f, 0x01, 'x'}},
		{"float count lies", []byte{binEvent, evSample, sampValues, 0x7f, 1, 2, 3}},
		{"zone offset absurd", append(append([]byte{binEvent, evRecord, recTime},
			binary.AppendVarint(nil, 1)...), binary.AppendVarint(nil, 1<<40)...)},
		{"trailing bytes", []byte{binReply, repID, 0x01, 0, 0xff}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req Request
			var ev Event
			var rep Reply
			dst := map[byte]any{binRequest: &req, binEvent: &ev, binReply: &rep}[firstByte(tc.payload)]
			if dst == nil {
				dst = &req
			}
			if err := decodeBinaryFrame(tc.payload, dst); err == nil {
				t.Errorf("decode %x: want error, got nil", tc.payload)
			}
		})
	}
}

func firstByte(b []byte) byte {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// TestWireInternSharesVocabulary: decoding a protocol-vocabulary string
// yields the shared instance; unknown strings still decode correctly.
func TestWireInternSharesVocabulary(t *testing.T) {
	if got := intern([]byte("DIRECT")); got != "DIRECT" {
		t.Errorf("intern(DIRECT) = %q", got)
	}
	if got := intern([]byte("not-in-the-catalog")); got != "not-in-the-catalog" {
		t.Errorf("intern(unknown) = %q", got)
	}
	if got := intern(nil); got != "" {
		t.Errorf("intern(nil) = %q", got)
	}
}

// TestFrameGrowPathPowerOfTwo pins the satellite fix: pooled read buffers
// grow to the next power of two up to the pool's limit, and exactly-sized
// above it (an oversize one-off must not poison the pool's growth pattern).
func TestFrameGrowPathPowerOfTwo(t *testing.T) {
	cases := []struct {
		n, wantCap int
	}{
		{1, 1},
		{2, 2},
		{3, 4},
		{100, 128},
		{4097, 8192},
		{pooledLimit - 1, pooledLimit},
		{pooledLimit, pooledLimit},
		{pooledLimit + 1, pooledLimit + 1}, // above the pool gate: exact
		{MaxFrameSize, MaxFrameSize},
	}
	for _, tc := range cases {
		var buf []byte
		got := sizeBuf(&buf, tc.n)
		if len(got) != tc.n {
			t.Errorf("sizeBuf(%d): len = %d", tc.n, len(got))
		}
		if cap(buf) != tc.wantCap {
			t.Errorf("sizeBuf(%d): cap = %d, want %d", tc.n, cap(buf), tc.wantCap)
		}
	}
	// Growth reuses a buffer that is already big enough.
	buf := make([]byte, 0, 256)
	_ = sizeBuf(&buf, 100)
	if cap(buf) != 256 {
		t.Errorf("sizeBuf shrank a sufficient buffer to cap %d", cap(buf))
	}
}

// TestFrameTooLargeAnnouncesSize pins the error text: the announced size
// appears in the message.
func TestFrameTooLargeAnnouncesSize(t *testing.T) {
	hdr := binary.AppendUvarint(nil, MaxFrameSize+7)
	var req Request
	err := NewConn(bytes.NewBuffer(hdr), V2, nil).ReadFrame(&req)
	want := fmt.Sprintf("announced %d bytes", MaxFrameSize+7)
	if !errors.Is(err, ErrFrameTooLarge) || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want ErrFrameTooLarge with %q", err, want)
	}
}

// TestWireV2OversizedWriteRejected: the writer enforces MaxFrameSize on the
// encoded payload, one byte past the limit.
func TestWireV2OversizedWriteRejected(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf, V2, nil)
	err := c.WriteFrame(Request{Value: strings.Repeat("x", MaxFrameSize+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
}

// BenchmarkWireExecV2 prices one full exec exchange — request encoded and
// decoded, reply encoded and decoded — over in-memory connections,
// isolating the marshalling tax. The TCP round trip (socket included) is
// benchmarked in internal/tracer.
func BenchmarkWireExecV2(b *testing.B) {
	req := Request{ID: 1, Op: OpExec, Device: "UR3e", Name: "move_joints",
		Args: []string{"0.5", "-1.2", "0.8", "0.0", "1.1", "-0.3"}, Procedure: "P2", Run: "bench"}
	rep := Reply{ID: 1, Value: "MVNG 0.5 -1.2 0.8 0.0 1.1 -0.3"}
	cli, srv := pair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.WriteFrame(req); err != nil {
			b.Fatal(err)
		}
		var gotReq Request
		if err := srv.ReadFrame(&gotReq); err != nil {
			b.Fatal(err)
		}
		if err := srv.WriteFrame(rep); err != nil {
			b.Fatal(err)
		}
		var gotRep Reply
		if err := cli.ReadFrame(&gotRep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEventV2 prices the tail path's hot frame: a trace event
// carrying a full record.
func BenchmarkWireEventV2(b *testing.B) {
	ev := Event{Kind: EventTrace, Record: sampleRecord()}
	cli, srv := pair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.WriteFrame(ev); err != nil {
			b.Fatal(err)
		}
		var got Event
		if err := srv.ReadFrame(&got); err != nil {
			b.Fatal(err)
		}
	}
}
