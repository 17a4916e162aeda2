package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// codec returns a Conn reading from and writing to one in-memory buffer: a
// frame written is the next frame read.
func codec() (*Conn, *bytes.Buffer) {
	var buf bytes.Buffer
	return NewConn(&buf, V2, nil), &buf
}

func TestRoundTripRequest(t *testing.T) {
	tests := []struct {
		name string
		req  Request
	}{
		{"exec", Request{ID: 1, Op: OpExec, Device: "C9", Name: "ARM", Args: []string{"10", "20", "30"}}},
		{"trace", Request{ID: 42, Op: OpTrace, Device: "UR3e", Name: "move_joints", Value: "ok", StartNanos: 100, EndNanos: 250, Procedure: "P2"}},
		{"ping", Request{ID: 7, Op: OpPing}},
		{"error", Request{ID: 9, Op: OpTrace, Device: "Quantos", Name: "start_dosing", Error: "front door crashed"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, _ := codec()
			if err := c.WriteFrame(tt.req); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
			var got Request
			if err := c.ReadFrame(&got); err != nil {
				t.Fatalf("ReadFrame: %v", err)
			}
			if got.ID != tt.req.ID || got.Op != tt.req.Op || got.Device != tt.req.Device ||
				got.Name != tt.req.Name || got.Value != tt.req.Value || got.Error != tt.req.Error {
				t.Errorf("round trip mismatch: got %+v want %+v", got, tt.req)
			}
			if len(got.Args) != len(tt.req.Args) {
				t.Errorf("args length mismatch: got %d want %d", len(got.Args), len(tt.req.Args))
			}
		})
	}
}

func TestRoundTripReply(t *testing.T) {
	c, _ := codec()
	want := Reply{ID: 3, Value: "MVNG 0 0 0 0", Error: ""}
	if err := c.WriteFrame(want); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	var got Reply
	if err := c.ReadFrame(&got); err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	c, _ := codec()
	for i := uint64(0); i < 10; i++ {
		if err := c.WriteFrame(Request{ID: i, Op: OpExec, Name: "Q"}); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		var got Request
		if err := c.ReadFrame(&got); err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.ID != i {
			t.Errorf("frame %d: got ID %d", i, got.ID)
		}
	}
}

func TestReadFrameEOFOnEmpty(t *testing.T) {
	var got Request
	err := NewConn(bytes.NewBuffer(nil), V2, nil).ReadFrame(&got)
	if !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	c, buf := codec()
	if err := c.WriteFrame(Request{ID: 1, Op: OpExec}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	var got Request
	if err := NewConn(bytes.NewBuffer(trunc), V2, nil).ReadFrame(&got); err == nil {
		t.Error("want error on truncated payload, got nil")
	}
}

func TestReadFrameOversizedHeaderRejected(t *testing.T) {
	hdr := binary.AppendUvarint(nil, MaxFrameSize+1)
	var got Request
	err := NewConn(bytes.NewBuffer(hdr), V2, nil).ReadFrame(&got)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestWriteFrameOversizedRejected(t *testing.T) {
	big := Request{ID: 1, Op: OpExec, Value: strings.Repeat("x", MaxFrameSize)}
	c, _ := codec()
	if err := c.WriteFrame(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReadFrameGarbagePayload(t *testing.T) {
	payload := []byte("this is not a frame")
	frame := append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	var got Request
	if err := NewConn(bytes.NewBuffer(frame), V2, nil).ReadFrame(&got); err == nil {
		t.Error("want error on garbage payload, got nil")
	}
}

// TestRoundTripProperty checks that any request survives a frame round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, device, name, value, errStr string, args []string) bool {
		in := Request{ID: id, Op: OpExec, Device: device, Name: name, Args: args, Value: value, Error: errStr}
		c, _ := codec()
		if err := c.WriteFrame(in); err != nil {
			// Only oversized frames may fail; those are outside quick's
			// default value sizes.
			return false
		}
		var out Request
		if err := c.ReadFrame(&out); err != nil {
			return false
		}
		if out.ID != in.ID || out.Device != in.Device || out.Name != in.Name ||
			out.Value != in.Value || out.Error != in.Error || len(out.Args) != len(in.Args) {
			return false
		}
		for i := range in.Args {
			if out.Args[i] != in.Args[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// countingBuffer counts the Write calls that reach it.
type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.writes++
	return b.Buffer.Write(p)
}

// TestWireBufferCoalescesFrames pins Buffer and Flush: queued frames reach
// the writer in one Write — at Flush, or as soon as the pending output
// crosses the fixed threshold — and read back in order with the same bytes
// WriteFrame produces one at a time. Frames of 128 bytes and more take a
// multi-byte length prefix, so both prefix widths are in the mix.
func TestWireBufferCoalescesFrames(t *testing.T) {
	var out countingBuffer
	c := NewConn(&out, V2, nil)
	frame := func(i int) Request {
		return Request{ID: uint64(i), Op: OpExec, Name: "Q", Value: strings.Repeat("v", i%200)}
	}
	for i := 0; i < 10; i++ {
		if err := c.Buffer(frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if out.writes != 0 {
		t.Fatalf("%d writes before Flush, want 0", out.writes)
	}
	// A frame that cannot be encoded leaves the queue as it was.
	if err := c.Buffer(struct{}{}); err == nil {
		t.Fatal("Buffer of an unknown type succeeded")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.writes != 1 || c.out != nil {
		t.Fatalf("Flush: %d writes, pending buffer %v; want 1 write and none held", out.writes, c.out)
	}
	if err := c.Flush(); err != nil || out.writes != 1 {
		t.Fatalf("empty Flush: %v, %d writes", err, out.writes)
	}

	// Past the threshold, Buffer writes by itself.
	n := 10
	for ; out.writes == 1; n++ {
		if err := c.Buffer(frame(n)); err != nil {
			t.Fatal(err)
		}
	}
	if out.Len() < flushThreshold {
		t.Fatalf("threshold write carried %d bytes, want >= %d", out.Len(), flushThreshold)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	one := NewConn(&want, V2, nil)
	for i := 0; i < n; i++ {
		if err := one.WriteFrame(frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("buffered frames differ from frames written one at a time")
	}
	for i := 0; i < n; i++ {
		var got Request
		if err := c.ReadFrame(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != uint64(i) || got.Value != frame(i).Value {
			t.Fatalf("frame %d: got %+v", i, got)
		}
	}
}
