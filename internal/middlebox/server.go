package middlebox

import (
	"context"
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

// ParseNetworkProfile maps a profile name to its profile: "lan", "cloud",
// or "none" (no emulated delay).
func ParseNetworkProfile(name string) (NetworkProfile, error) {
	switch name {
	case "lan":
		return LANProfile(), nil
	case "cloud":
		return CloudProfile(), nil
	case "none":
		return NetworkProfile{}, nil
	}
	return NetworkProfile{}, fmt.Errorf("unknown network profile %q", name)
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
// per connection; requests on a connection are served in order. The
// connection lifecycle is the shared wire.Listener's: a connection that
// does not open with the wire preamble is dropped without a reply.
type Server struct {
	core    Handler
	profile NetworkProfile
	spans   *span.Recorder
	wl      *wire.Listener

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// NewHandlerServer wraps any Handler — a single-tenant Core or a
// fleet.Router multiplexing hundreds of them — with the given emulated
// network profile.
func NewHandlerServer(h Handler, profile NetworkProfile, seed uint64) *Server {
	s := &Server{
		core:    h,
		profile: profile,
		rng:     rand.New(rand.NewPCG(seed, seed^0xa0761d6478bd642f)),
	}
	s.wl = wire.NewListener("middlebox", s.serveConn)
	return s
}

// SetProtocol does nothing: every connection speaks the one wire protocol.
//
// Deprecated: the only caller is perfbench, which also builds against older trees.
func (s *Server) SetProtocol(wire.Proto) {}

// Observe registers wire metrics (frame counters, encode/decode latency
// histograms) in reg. Call before Start.
func (s *Server) Observe(reg *obs.Registry) { s.wl.Metrics = wire.NewMetrics(reg) }

// SetSpans attaches a span flight recorder: every request served gets a
// "server.request" root span (stitched under the client's span when the
// request carries trace context) with wire decode/encode child spans
// measured codec-only via the connection's latency capture. Call before
// Start. Pass the same recorder to the Core (or tenant Cores) behind this
// server so exec spans land in the same trees.
func (s *Server) SetSpans(r *span.Recorder) { s.spans = r }

// Draining reports whether Drain (or Close) has begun — the middlebox
// contribution to a drain-aware /healthz.
func (s *Server) Draining() bool { return s.wl.Draining() }

// SetIdleTimeout bounds how long a connection may sit between requests
// before it is reaped. The exec protocol is strict request/reply, so a
// peer that goes quiet past the deadline is either gone or half-open
// (crashed without a FIN); without the deadline such a connection holds
// its goroutine and socket until process exit. Zero (the default) never
// times out. Call before Start.
func (s *Server) SetIdleTimeout(d time.Duration) { s.wl.IdleTimeout = d }

// Start listens on addr (e.g. "127.0.0.1:0") and begins serving in the
// background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) { return s.wl.Start(addr) }

// Close stops the listener, closes all live connections, and waits for the
// connection goroutines to exit.
func (s *Server) Close() error { return s.wl.Close() }

// Drain is graceful shutdown: stop accepting, let every in-flight request
// finish and its reply flush, then close. Each connection's drain hook
// expires its read deadline, which ends a blocked ReadFrame without
// touching the write direction, so a reply mid-flight still goes out. Past
// ctx's deadline the stragglers are severed and Drain returns ctx.Err()
// without waiting (see wire.Listener.Drain); nil means everything flushed
// in time. Close afterwards waits for any stragglers.
func (s *Server) Drain(ctx context.Context) error { return s.wl.Drain(ctx) }

func (s *Server) serveConn(conn net.Conn, wc *wire.Conn) {
	if !s.wl.OnDrain(conn, func() { _ = conn.SetReadDeadline(time.Now()) }) {
		return
	}
	if s.spans.Enabled() {
		wc.CaptureCodecLatency()
	}
	for {
		// Arm's closed check and idle-deadline re-arm share the critical
		// section Drain runs the hook above in, so a drain nudge (an
		// expired read deadline) can never be overwritten by this
		// connection's own idle deadline.
		if !s.wl.Arm(conn) {
			return
		}
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
		time.Sleep(s.sampleDelay()) // inbound network
		reply := s.core.Handle(req)
		time.Sleep(s.sampleDelay()) // outbound network
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

// ensure interface-style usage stays honest.
var _ io.Closer = (*Server)(nil)
