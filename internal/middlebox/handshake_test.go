package middlebox

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"rad/internal/wire"
)

// TestWireMiddleboxPinnedProtocols is the listener-level half of the
// handshake contract: a client that opens with a legacy length-prefixed
// frame instead of the preamble gets no reply — its connection is dropped —
// and the next client is served normally.
func TestWireMiddleboxPinnedProtocols(t *testing.T) {
	t.Run("v2 pin", func(t *testing.T) {
		core, _, _ := newTestCore(t)
		srv := NewServer(core, NetworkProfile{}, 1)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		legacy, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer legacy.Close()
		ping := []byte(`{"id":1,"op":"ping"}`)
		if _, err := legacy.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(ping))), ping...)); err != nil {
			t.Fatal(err)
		}
		_ = legacy.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := legacy.Read(make([]byte, 1)); err == nil {
			t.Fatalf("legacy client got %d reply bytes", n)
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("legacy client's connection was left open")
		}

		conn, wc, err := wire.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wc.WriteFrame(wire.Request{ID: 1, Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
		var rep wire.Reply
		if err := wc.ReadFrame(&rep); err != nil || rep.Value != "pong" {
			t.Fatalf("ping after a legacy client: %+v, %v", rep, err)
		}
	})
}
