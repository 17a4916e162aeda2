package wire

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Listener is the connection lifecycle every serving listener shares: it
// listens, accepts, performs the server handshake (Accept) and drops a peer
// that fails it unanswered, tracks each connection from the moment it lands
// until its serve function returns, and shuts them all down — gracefully
// with Drain, at once with Close. What a connection does after the
// handshake is its serve function's business; how it winds down under Drain
// is its drain hook's (OnDrain).
type Listener struct {
	// Metrics, when set before Start, counts handshakes and frames on every
	// accepted connection. Nil records nothing.
	Metrics *Metrics
	// IdleTimeout, when positive and set before Start, is the read deadline
	// Arm sets for each request a connection waits for.
	IdleTimeout time.Duration

	name  string
	serve func(net.Conn, *Conn)

	mu sync.Mutex
	ln net.Listener
	// conns holds every live connection, including those still in the
	// handshake, mapped to its drain hook: nil until the serve function
	// registers one.
	conns  map[net.Conn]func()
	closed bool
	wg     sync.WaitGroup
}

// NewListener returns a listener that runs serve on each connection past
// the handshake, in its own goroutine. The connection is closed once serve
// returns. name prefixes the listener's errors.
func NewListener(name string, serve func(net.Conn, *Conn)) *Listener {
	return &Listener{name: name, serve: serve, conns: make(map[net.Conn]func())}
}

// Start listens on addr (e.g. "127.0.0.1:0") and accepts in the background.
// It returns the bound address, or an error once Drain or Close has begun.
func (l *Listener) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", l.name, addr, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		_ = ln.Close()
		return "", fmt.Errorf("%s: server already closed", l.name)
	}
	l.ln = ln
	l.wg.Add(1)
	go l.accept(ln)
	return ln.Addr().String(), nil
}

func (l *Listener) accept(ln net.Listener) {
	defer l.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = nc.Close()
			return
		}
		l.conns[nc] = nil
		l.wg.Add(1)
		l.mu.Unlock()
		go l.handle(nc)
	}
}

func (l *Listener) handle(nc net.Conn) {
	defer func() {
		_ = nc.Close()
		l.mu.Lock()
		delete(l.conns, nc)
		l.mu.Unlock()
		l.wg.Done()
	}()
	// A dead or protocol-confused peer is dropped with nothing to tell it.
	if wc, err := Accept(nc, l.Metrics); err == nil {
		l.serve(nc, wc)
	}
}

// OnDrain registers nc's drain hook: Drain runs it instead of closing the
// connection, so the serve function can finish what it owes its peer and
// return. The hook runs under the listener's lock (see Arm) and must not
// call back into the Listener. OnDrain reports false when Drain or Close
// has already begun; the serve function must then return.
func (l *Listener) OnDrain(nc net.Conn, hook func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conns[nc] = hook
	return true
}

// Arm prepares nc to wait for its next request: it reports false once
// Drain or Close has begun, and otherwise re-arms the idle read deadline.
// Both happen in the critical section Drain runs hooks in, so a hook that
// expires the read deadline is never overwritten by a re-arm.
func (l *Listener) Arm(nc net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	if l.IdleTimeout > 0 {
		_ = nc.SetReadDeadline(time.Now().Add(l.IdleTimeout))
	}
	return true
}

// Draining reports whether Drain or Close has begun.
func (l *Listener) Draining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Drain is graceful shutdown: stop accepting, run every registered drain
// hook, close the connections that have none (they are still negotiating),
// and wait for the serve functions to return. Past ctx's deadline it closes
// every connection and returns ctx.Err() without waiting further: a serve
// function stuck in user code cannot be unblocked by a dead socket, so, as
// with net/http's Shutdown, its goroutine is left to finish on its own.
// Close afterwards waits for it.
func (l *Listener) Drain(ctx context.Context) error {
	_ = l.stop(true)
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		_ = l.stop(false)
		return ctx.Err()
	}
}

// Close stops the listener, closes every connection, and waits for the
// serve functions to return.
func (l *Listener) Close() error {
	err := l.stop(false)
	l.wg.Wait()
	return err
}

// stop marks the listener closed and closes its socket. graceful runs each
// connection's drain hook and closes only the connections without one;
// otherwise every connection is closed.
func (l *Listener) stop(graceful bool) error {
	l.mu.Lock()
	l.closed = true
	ln := l.ln
	l.ln = nil
	for nc, hook := range l.conns {
		if graceful && hook != nil {
			hook()
		} else {
			_ = nc.Close()
		}
	}
	l.mu.Unlock()
	if ln == nil {
		return nil
	}
	return ln.Close()
}
