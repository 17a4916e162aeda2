package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func TestWireNegotiateV2(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	t.Cleanup(func() { cliConn.Close(); srvConn.Close() })
	type res struct {
		srv *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		srv, err := Accept(srvConn, nil)
		ch <- res{srv, err}
	}()
	cli, err := Client(cliConn, nil)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	var r res
	select {
	case r = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	// A frame flows over the negotiated connection (pipe needs both sides live).
	go func() { _ = cli.WriteFrame(Request{ID: 9, Op: OpPing}) }()
	var req Request
	if err := r.srv.ReadFrame(&req); err != nil || req.ID != 9 || req.Op != OpPing {
		t.Fatalf("frame over negotiated connection: %+v, %v", req, err)
	}
}

// legacyFrame is what a client of the retired length-prefixed JSON framing
// opened with: a 4-byte big-endian length, then the JSON payload.
func legacyFrame() []byte {
	payload := []byte(`{"id":1,"op":"ping"}`)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// acceptErr runs Accept on one end of a pipe while the other end writes
// opener, and returns Accept's error.
func acceptErr(t *testing.T, opener []byte) error {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	defer srvConn.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := Accept(srvConn, nil)
		errCh <- err
	}()
	go func() { _, _ = cliConn.Write(opener) }()
	select {
	case err := <-errCh:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return")
		return nil
	}
}

// TestWireNegotiateRequiredV2RejectsV1: a listener serves only peers that
// open with the v2 preamble. A v1 frame or garbage is an Accept error, which
// the listeners turn into a dropped connection with no reply.
func TestWireNegotiateRequiredV2RejectsV1(t *testing.T) {
	cases := []struct {
		name   string
		opener []byte
	}{
		{"legacy length-prefixed frame", legacyFrame()},
		{"garbage", []byte("GET / HTTP/1.1\r\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := acceptErr(t, tc.opener); err == nil || !strings.Contains(err.Error(), "bad preamble") {
				t.Fatalf("Accept err = %v, want bad preamble", err)
			}
		})
	}
}

// TestWireNegotiateBadVersionByte: a preamble with the right magic but an
// unknown version byte, or the right magic prefix with a wrong tail, is
// rejected with an error naming which part is wrong.
func TestWireNegotiateBadVersionByte(t *testing.T) {
	err := acceptErr(t, []byte{'R', 'A', 'D', '2', 99})
	if err == nil || !strings.Contains(err.Error(), "unsupported protocol version 99") {
		t.Fatalf("future version byte: err = %v", err)
	}
	// Magic prefix right, magic tail wrong.
	if err := acceptErr(t, []byte{'R', 'O', 'G', 'U', 'E'}); err == nil || !strings.Contains(err.Error(), "bad preamble") {
		t.Fatalf("bad magic: err = %v", err)
	}
}

// TestWireNegotiateDeadConn kills the client at every point inside the
// handshake; Accept must return an error each time, never hang.
func TestWireNegotiateDeadConn(t *testing.T) {
	for _, sent := range []int{0, 1, 3} {
		cliConn, srvConn := net.Pipe()
		errCh := make(chan error, 1)
		go func() {
			_, err := Accept(srvConn, nil)
			errCh <- err
		}()
		if sent > 0 {
			if _, err := cliConn.Write(preamble[:sent]); err != nil {
				t.Fatal(err)
			}
		}
		_ = cliConn.Close()
		select {
		case err := <-errCh:
			if err == nil {
				t.Errorf("client died after %d preamble bytes: Accept returned nil error", sent)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("client died after %d preamble bytes: Accept hung", sent)
		}
		_ = srvConn.Close()
	}
}

// listen serves each accepted connection with serve until the test ends.
func listen(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWireDialAutoUpgradesToV2: Dial performs the handshake itself, so the
// connection it returns already speaks the binary framing.
func TestWireDialAutoUpgradesToV2(t *testing.T) {
	addr := listen(t, func(conn net.Conn) {
		wc, err := Accept(conn, nil)
		if err != nil {
			return
		}
		for {
			var req Request
			if err := wc.ReadFrame(&req); err != nil {
				return
			}
			if err := wc.WriteFrame(Reply{ID: req.ID, Value: "pong"}); err != nil {
				return
			}
		}
	})
	conn, wc, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wc.WriteFrame(Request{ID: 1, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var rep Reply
	if err := wc.ReadFrame(&rep); err != nil || rep.Value != "pong" {
		t.Fatalf("ping reply %+v, %v", rep, err)
	}
}

// TestWireDialRequiredV2AgainstV1OnlyFails dials a listener that speaks
// only the retired 4-byte-length framing: it reads the preamble as an
// absurd frame length and hangs up, so Dial must fail instead of handing
// back a connection.
func TestWireDialRequiredV2AgainstV1OnlyFails(t *testing.T) {
	addr := listen(t, func(conn net.Conn) {
		var hdr [4]byte
		_, _ = io.ReadFull(conn, hdr[:]) // "RAD2" announces a ~1.4 GB frame
	})
	conn, _, err := Dial(addr, nil)
	if err == nil {
		conn.Close()
		t.Fatal("Dial against a v1-only listener succeeded")
	}
}

// TestWireV2ReadFrameEOF: a cleanly closed connection yields bare io.EOF
// from ReadFrame.
func TestWireV2ReadFrameEOF(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	go func() {
		_, _ = Client(cliConn, nil)
		cliConn.Close()
	}()
	wc, err := Accept(srvConn, nil)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := wc.ReadFrame(&req); !errors.Is(err, io.EOF) {
		t.Fatalf("read on closed conn: %v, want io.EOF", err)
	}
}
