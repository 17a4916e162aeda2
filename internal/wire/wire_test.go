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
