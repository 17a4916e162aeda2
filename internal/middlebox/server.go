package middlebox

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/wire"
)

// NetworkProfile emulates the network between the lab computer and the
// middlebox by delaying each request before it is processed and each reply
// before it is sent. The zero value is a perfect network.
//
// Profiles let one loopback deployment reproduce the paper's three Fig. 4
// configurations: DIRECT/REMOTE on the lab LAN (sub-millisecond one-way
// delay with occasional jitter spikes) and the Azure F16s v2 cloud replay
// (~30 ms each way for a ~60 ms average response time).
type NetworkProfile struct {
	// OneWayDelay is the base one-way latency added in each direction.
	OneWayDelay time.Duration
	// Jitter is the upper bound of uniform extra delay per direction.
	Jitter time.Duration
	// SpikeProb is the probability that a direction experiences a latency
	// spike of SpikeDelay (the paper's occasional >30 ms REMOTE outliers).
	SpikeProb  float64
	SpikeDelay time.Duration
}

// LANProfile models the lab's switched Ethernet between the lab computer and
// the middlebox: ~1 ms one way with rare multi-ms spikes.
func LANProfile() NetworkProfile {
	return NetworkProfile{
		OneWayDelay: 800 * time.Microsecond,
		Jitter:      400 * time.Microsecond,
		SpikeProb:   0.01,
		SpikeDelay:  28 * time.Millisecond,
	}
}

// CloudProfile models the Azure F16s v2 replay of footnote 1: a WAN RTT
// placing average response times around 60 ms.
func CloudProfile() NetworkProfile {
	return NetworkProfile{
		OneWayDelay: 27 * time.Millisecond,
		Jitter:      5 * time.Millisecond,
		SpikeProb:   0.01,
		SpikeDelay:  40 * time.Millisecond,
	}
}

// Delay samples one direction's delay using rng.
func (p NetworkProfile) Delay(rng *rand.Rand) time.Duration {
	d := p.OneWayDelay
	if p.Jitter > 0 {
		d += time.Duration(rng.Int64N(int64(p.Jitter)))
	}
	if p.SpikeProb > 0 && rng.Float64() < p.SpikeProb {
		d += p.SpikeDelay
	}
	return d
}

// Handler processes one middlebox request into its reply. Core implements
// it for a single lab; fleet.Router implements it by routing on the
// request's Tenant field — either serves behind the same Server.
type Handler interface {
	Handle(wire.Request) wire.Reply
}

// Server exposes a Handler over TCP using the wire protocol. One goroutine
// per connection; requests on a connection are served in order. A
// connection that does not open with the wire preamble (wire.Accept) is
// dropped without a reply.
type Server struct {
	core    Handler
	profile NetworkProfile
	wireM   *wire.Metrics
	spans   *span.Recorder

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	rng    *rand.Rand
	closed bool
	idle   time.Duration

	wg sync.WaitGroup
}

// NewServer wraps core with the given emulated network profile.
func NewServer(core *Core, profile NetworkProfile, seed uint64) *Server {
	return NewHandlerServer(core, profile, seed)
}

// NewHandlerServer wraps any Handler — a single-tenant Core or a
// fleet.Router multiplexing hundreds of them — with the given emulated
// network profile.
func NewHandlerServer(h Handler, profile NetworkProfile, seed uint64) *Server {
	return &Server{
		core:    h,
		profile: profile,
		conns:   make(map[net.Conn]struct{}),
		rng:     rand.New(rand.NewPCG(seed, seed^0xa0761d6478bd642f)),
	}
}

// SetProtocol does nothing: every connection speaks the one wire protocol.
//
// Deprecated: the only caller is perfbench, which also builds against older trees.
func (s *Server) SetProtocol(wire.Proto) {}

// Observe registers wire metrics (frame counters, encode/decode latency
// histograms) in reg. Call before Start.
func (s *Server) Observe(reg *obs.Registry) { s.wireM = wire.NewMetrics(reg) }

// SetSpans attaches a span flight recorder: every request served gets a
// "server.request" root span (stitched under the client's span when the
// request carries trace context) with wire decode/encode child spans
// measured codec-only via the connection's latency capture. Call before
// Start. Pass the same recorder to the Core (or tenant Cores) behind this
// server so exec spans land in the same trees.
func (s *Server) SetSpans(r *span.Recorder) { s.spans = r }

// Draining reports whether Drain (or Close) has begun — the middlebox
// contribution to a drain-aware /healthz.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// SetIdleTimeout bounds how long a connection may sit between requests
// before it is reaped. The exec protocol is strict request/reply, so a
// peer that goes quiet past the deadline is either gone or half-open
// (crashed without a FIN); without the deadline such a connection holds
// its goroutine and socket until process exit. Zero (the default) never
// times out. Call before Start.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle = d }

// Start listens on addr (e.g. "127.0.0.1:0") and begins serving in the
// background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("middlebox: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("middlebox: server already closed")
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	wc, err := wire.Accept(conn, s.wireM)
	if err != nil {
		return // dead or protocol-confused peer: drop the connection
	}
	if s.spans.Enabled() {
		wc.CaptureCodecLatency()
	}
	for {
		// The closed check and any deadline reset share the mutex with
		// Drain, so a drain nudge (an expired read deadline) can never be
		// overwritten by this connection's own idle deadline.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if s.idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idle))
		}
		s.mu.Unlock()
		var req wire.Request
		if err := wc.ReadFrame(&req); err != nil {
			return // EOF, idle timeout, or a broken/odd frame: drop the connection
		}
		var sctx span.Context
		var parent uint64
		var reqStart time.Time
		if s.spans.Enabled() {
			// Adopt the peer's trace context (stitching this server's tree
			// under the client's span) and rewrite the request's context to
			// the server root, so the Core's exec span lands under it. The
			// decode child is bracketed from the connection's codec-latency
			// capture — marshal time only, never the idle socket wait, so
			// min-duration filters stay meaningful.
			sctx, parent = s.spans.Adopt(span.Context{TraceID: req.TraceID, SpanID: req.SpanID})
			reqStart = time.Now()
			dec, _ := wc.LastCodecLatency()
			s.spans.Record(span.Span{TraceID: sctx.TraceID, SpanID: s.spans.NewID(), ParentID: sctx.SpanID,
				Name: "wire.decode", Tenant: req.Tenant, Start: reqStart.Add(-dec), End: reqStart})
			req.TraceID, req.SpanID = sctx.TraceID, sctx.SpanID
		}
		s.sleep(s.sampleDelay()) // inbound network
		reply := s.core.Handle(req)
		s.sleep(s.sampleDelay()) // outbound network
		werr := wc.WriteFrame(reply)
		if sctx.Valid() {
			end := time.Now()
			if werr == nil {
				_, enc := wc.LastCodecLatency()
				s.spans.Record(span.Span{TraceID: sctx.TraceID, SpanID: s.spans.NewID(), ParentID: sctx.SpanID,
					Name: "wire.encode", Tenant: req.Tenant, Start: end.Add(-enc), End: end})
			}
			root := span.Span{TraceID: sctx.TraceID, SpanID: sctx.SpanID, ParentID: parent,
				Name: "server.request", Tenant: req.Tenant, Start: reqStart, End: end}
			root.SetAttr("op", string(req.Op))
			if reply.Error != "" {
				root.Outcome = span.OutcomeError
			}
			s.spans.Record(root)
		}
		if werr != nil {
			return
		}
	}
}

func (s *Server) sampleDelay() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.profile.Delay(s.rng)
}

func (s *Server) sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Close stops the listener, closes all live connections, and waits for the
// connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Drain is graceful shutdown: stop accepting, let every in-flight request
// finish and its reply flush, then close. Idle connections are nudged with
// an expired read deadline (which ends their blocked ReadFrame without
// touching the write direction, so a reply mid-flight still goes out), and
// the connection goroutines are awaited up to ctx's deadline, after which
// the stragglers are severed Close-style and Drain returns ctx.Err()
// without waiting further (a Handler stuck in user code cannot be
// unblocked by a dead socket; like net/http's Shutdown, its goroutine is
// abandoned to finish on its own). Returns nil when everything flushed in
// time. Close afterwards is a harmless no-op that waits for any
// stragglers.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// ensure interface-style usage stays honest.
var _ io.Closer = (*Server)(nil)
