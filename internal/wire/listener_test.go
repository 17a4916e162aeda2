package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// start starts l and closes it when the test ends.
func start(t *testing.T, l *Listener) string {
	t.Helper()
	addr, err := l.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return addr
}

// waitConns waits until the listener tracks n live connections.
func waitConns(t *testing.T, l *Listener, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		got := len(l.conns)
		l.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener tracks %d connections, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectSevered fails unless the server closed nc: a read must end with
// EOF or a reset, not with the local deadline.
func expectSevered(t *testing.T, nc net.Conn) {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatalf("read %d bytes from a connection the server should have closed", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection left open")
	}
}

// dialRaw opens a TCP connection that sends opener instead of a full
// preamble.
func dialRaw(t *testing.T, addr string, opener []byte) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if len(opener) > 0 {
		if _, err := nc.Write(opener); err != nil {
			t.Fatal(err)
		}
	}
	return nc
}

func TestListenerStartAfterCloseAndRepeatedShutdown(t *testing.T) {
	serve := func(net.Conn, *Conn) {}
	l := NewListener("test", serve)
	if _, err := l.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}

	l = NewListener("test", serve)
	if _, err := l.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
}

// TestListenerShutdownSeversNegotiatingConns: connections still in the
// handshake — nothing sent, or half a preamble — are tracked from the
// moment they land, so neither Drain nor Close waits on them.
func TestListenerShutdownSeversNegotiatingConns(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Listener) error
	}{
		{"drain", func(l *Listener) error { return l.Drain(context.Background()) }},
		{"close", (*Listener).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			served := make(chan struct{}, 2)
			l := NewListener("test", func(net.Conn, *Conn) { served <- struct{}{} })
			addr := start(t, l)
			quiet := dialRaw(t, addr, nil)
			partial := dialRaw(t, addr, preamble[:2])
			waitConns(t, l, 2)

			done := make(chan error, 1)
			go func() { done <- tc.stop(l) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("shutdown hung on connections still in the handshake")
			}
			expectSevered(t, quiet)
			expectSevered(t, partial)
			if len(served) != 0 {
				t.Fatal("a connection that never completed the handshake was served")
			}
		})
	}
}

// TestListenerDrainRunsHook: Drain hands a connection that registered a
// hook to that hook instead of closing it, so the serve function can
// still answer its peer before returning.
func TestListenerDrainRunsHook(t *testing.T) {
	registered := make(chan struct{})
	var l *Listener
	l = NewListener("test", func(nc net.Conn, wc *Conn) {
		drained := make(chan struct{})
		if !l.OnDrain(nc, func() { close(drained) }) {
			t.Error("OnDrain refused before shutdown began")
			return
		}
		close(registered)
		<-drained
		_ = wc.WriteFrame(Reply{ID: 1, Value: "bye"})
	})
	addr := start(t, l)
	nc, wc, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	<-registered

	done := make(chan error, 1)
	go func() { done <- l.Drain(context.Background()) }()
	var rep Reply
	if err := wc.ReadFrame(&rep); err != nil || rep.Value != "bye" {
		t.Fatalf("reply after the drain hook = %+v, %v", rep, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	expectSevered(t, nc) // closed once serve returned
}

// TestListenerDrainDeadline: a serve function that never returns is cut
// off at Drain's deadline — its connection closed, ctx.Err() returned at
// once — and a later Close waits for its goroutine.
func TestListenerDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	registered := make(chan struct{})
	var l *Listener
	l = NewListener("test", func(nc net.Conn, _ *Conn) {
		l.OnDrain(nc, func() {})
		close(registered)
		<-release
	})
	addr := start(t, l)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	nc, _, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	<-registered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	began := time.Now()
	if err := l.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}
	if waited := time.Since(began); waited > 2*time.Second {
		t.Fatalf("Drain waited %v past its deadline", waited)
	}
	expectSevered(t, nc)

	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a serve function was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the serve function did")
	}
}

// TestListenerLateHookIsToldToStop: Draining turns true as soon as Drain or
// Close begins, and a connection that registers its hook (or asks for its
// next request) after that is told to stop.
func TestListenerLateHookIsToldToStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Listener) error
	}{
		{"drain", func(l *Listener) error { return l.Drain(context.Background()) }},
		{"close", (*Listener).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inServe := make(chan struct{})
			proceed := make(chan struct{})
			refused := make(chan bool, 1)
			var l *Listener
			l = NewListener("test", func(nc net.Conn, _ *Conn) {
				close(inServe)
				<-proceed
				refused <- !l.OnDrain(nc, func() {}) && !l.Arm(nc)
			})
			addr := start(t, l)
			nc, _, err := Dial(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			<-inServe
			if l.Draining() {
				t.Fatal("Draining before shutdown began")
			}

			done := make(chan error, 1)
			go func() { done <- tc.stop(l) }()
			deadline := time.Now().Add(5 * time.Second)
			for !l.Draining() {
				if time.Now().After(deadline) {
					t.Fatal("Draining never turned true")
				}
				time.Sleep(time.Millisecond)
			}
			close(proceed)
			if !<-refused {
				t.Fatal("a hook registered after shutdown began was accepted")
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}
