package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rad/internal/obs"
	"rad/internal/obs/span"
	"rad/internal/store"
	"rad/internal/tracedb"
	"rad/internal/wire"
)

// Server exposes a broker's live feed over TCP: one Subscribe frame in, a
// stream of Event frames out (the wire-protocol tail of wire/stream.go).
// Each connection gets its own broker subscription, so the overflow policy
// and drop accounting are per-tailer; a stalled client under drop-oldest
// costs the middlebox nothing but that client's own ring.
//
// The connection lifecycle is the shared wire.Listener's, as for the
// middlebox listener: a connection that does not open with the wire
// preamble is dropped unanswered, and one still negotiating is tracked, so
// Drain and Close sever it instead of waiting on it.
type Server struct {
	broker    *Broker
	db        *tracedb.DB // snapshot source; nil disables snapshot-then-follow
	spans     *span.Recorder
	resolver  TenantResolver // nil: single-tenant listener
	heartbeat time.Duration  // ping interval; zero disables pings
	wl        *wire.Listener
}

// maxSubscriberBuffer caps a client-requested ring so one tail cannot pin
// unbounded memory on the middlebox.
const maxSubscriberBuffer = 1 << 16

// NewServer wraps broker; db (which may be nil) serves Subscribe.Snapshot
// replays.
func NewServer(broker *Broker, db *tracedb.DB) *Server {
	s := &Server{broker: broker, db: db}
	s.wl = wire.NewListener("stream", s.serveConn)
	return s
}

// SetProtocol does nothing: every connection speaks the one wire protocol.
//
// Deprecated: the only caller is perfbench, which also builds against older trees.
func (s *Server) SetProtocol(wire.Proto) {}

// Observe registers wire metrics in reg (shared with any other listener
// observing the same registry). Call before Start.
func (s *Server) Observe(reg *obs.Registry) { s.wl.Metrics = wire.NewMetrics(reg) }

// SetSpans attaches a span flight recorder: every traced record delivered
// to a tailer gets a "stream.deliver" child span under the record's exec
// span, closing the trace tree's last hop. Call before Start.
func (s *Server) SetSpans(r *span.Recorder) { s.spans = r }

// Draining reports whether Drain (or Close) has begun — the stream
// listener's contribution to a drain-aware /healthz.
func (s *Server) Draining() bool { return s.wl.Draining() }

// TenantResolver maps a tenant-tagged Subscribe frame to that tenant's
// broker and snapshot store (db may be nil: snapshot-then-follow disabled
// for that tenant). Returning an error rejects the subscription with a
// precise EventError instead of silently serving the wrong lab's feed.
type TenantResolver func(tenant string) (*Broker, *tracedb.DB, error)

// SetTenantResolver makes the tail listener fleet-aware: subscriptions
// carrying a tenant ID are routed through r to their own lab's broker,
// while untagged subscriptions keep flowing to the server's default
// broker — a pre-fleet tailer needs no change. Call before Start.
func (s *Server) SetTenantResolver(r TenantResolver) { s.resolver = r }

// SetHeartbeat enables liveness probing of tail connections: every
// interval the server pings, and a connection that sends no pong within
// twice the interval is reaped — its subscriber detached, its metrics
// unregistered, its goroutines collected — instead of holding a slot until
// the next write discovers the corpse. Zero disables pings. Call before
// Start.
func (s *Server) SetHeartbeat(interval time.Duration) { s.heartbeat = interval }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background,
// returning the bound address.
func (s *Server) Start(addr string) (string, error) { return s.wl.Start(addr) }

// Close stops the listener, closes every live tail, and waits for the
// connection goroutines to exit.
func (s *Server) Close() error { return s.wl.Close() }

// Drain is graceful shutdown: stop accepting and detach every subscriber
// from its broker (no new events enter the rings), so each pump flushes
// its already-buffered events to its client and ends the tail. It returns
// nil once every tail has flushed; past ctx's deadline it severs the rest
// and returns ctx.Err() without waiting (see wire.Listener.Drain). Close
// afterwards waits for them.
func (s *Server) Drain(ctx context.Context) error { return s.wl.Drain(ctx) }

// serveConn serves one connection past the handshake: it opens the tail
// its Subscribe frame asks for and runs it. A refused subscription gets
// one error frame saying why.
func (s *Server) serveConn(conn net.Conn, wc *wire.Conn) {
	tc := &tailConn{wc: wc}
	tail, err := s.subscribe(conn, tc)
	if err != nil {
		if !errors.Is(err, io.EOF) { // the client left before subscribing
			_ = tc.write(wire.Event{Kind: wire.EventError, Error: err.Error()})
		}
		return
	}
	s.serveTail(conn, tc, tail)
}

// subscribe reads and validates the Subscribe frame, then opens its tail
// against the resolved tenant's broker and store. A plain subscription's
// tail has no store; a snapshot or resume subscription replays from it.
func (s *Server) subscribe(conn net.Conn, tc *tailConn) (*Tail, error) {
	var req wire.Subscribe
	if err := tc.wc.ReadFrame(&req); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, err
		}
		// The peer completed the handshake, so it can decode an error
		// frame: report the malformed subscribe precisely instead of
		// closing silently.
		return nil, fmt.Errorf("stream: bad subscribe frame: %v", err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tc.tenant = req.Tenant
	broker, db := s.broker, s.db
	if req.Tenant != "" {
		if s.resolver == nil {
			return nil, fmt.Errorf("stream: tenant %q requested but this listener is single-tenant", req.Tenant)
		}
		var err error
		if broker, db, err = s.resolver(req.Tenant); err != nil {
			return nil, fmt.Errorf("stream: tenant %q: %v", req.Tenant, err)
		}
	}
	replay := req.Snapshot || req.ResumeFrom > 0
	if replay && db == nil {
		return nil, errors.New("stream: snapshot requested but the middlebox has no persistent store")
	}
	if !replay {
		db = nil
	}
	if req.ResumeFrom > 0 {
		if head := db.NextSeq(); req.ResumeFrom > head {
			return nil, fmt.Errorf("stream: resume from seq %d is beyond the store head %d", req.ResumeFrom, head)
		}
	}
	// Exactly-once resume: replay [ResumeFrom, now) from the store via
	// snapshot-then-follow, pushing the seq predicate down into both the
	// snapshot scan and the live-feed filter. The store head (checked
	// above) and the retention floor bound what is replayable.
	opts := subOptions(req, conn)
	opts.Filter.MinSeq = req.ResumeFrom
	tail := broker.Tail(db, opts)
	if req.ResumeFrom > 0 && req.ResumeFrom < tail.it.SeqFloor() {
		// Retention had retired the resume point when the snapshot was
		// taken: say exactly how many records are unrecoverable; the
		// snapshot replays what the store still holds, from the floor.
		gap := tail.it.SeqFloor() - req.ResumeFrom
		if err := tc.write(wire.Event{Kind: wire.EventResumeGap, Gap: gap}); err != nil {
			tail.Close()
			return nil, err
		}
	}
	return tail, nil
}

// tailConn serializes writes to one tail connection. A wire.Conn is not
// safe for concurrent use of the same direction, and with heartbeats the
// write direction gains a second writer: the pinger goroutine interleaving
// control frames with the pump's events.
//
// Event frames are queued (wire.Conn.Buffer) and written in batches; write
// sends its frame at once, behind whatever is queued. So does queueBlock,
// its block written from the snapshot's read buffer (wire.Conn.BufferBlock).
type tailConn struct {
	mu sync.Mutex
	wc *wire.Conn
	// tenant is the subscription's tenant tag, carried onto delivery spans.
	tenant string
}

func (tc *tailConn) write(v any) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.wc.WriteFrame(v)
}

func (tc *tailConn) queue(v any) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.wc.Buffer(v)
}

func (tc *tailConn) queueBlock(block []byte) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.wc.BufferBlock(block)
}

func (tc *tailConn) flush() error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.wc.Flush()
}

// serveTail runs one subscription to its end against the resolved
// tenant's broker and store. A tail with a store replays its history first:
// each block the subscription covers is forwarded as stored, one event
// frame carrying the block, and every other record as its own frame. The
// frames are queued and go out in batches, and the snapshot-end marker
// writes whatever is still queued. Every tail then follows the live feed.
func (s *Server) serveTail(conn net.Conn, tc *tailConn, tail *Tail) {
	// Close the whole tail, not just its subscriber: a client that dies
	// mid-snapshot abandons the iterator, and an unreleased iterator pins
	// segment files the lifecycle engine has retired.
	defer tail.Close()
	sub := tail.Subscriber()
	// Draining detaches the subscriber without severing the connection: no
	// new events enter the ring, and the pump flushes what it holds.
	if !s.wl.OnDrain(conn, sub.Close) {
		return
	}
	stop := s.supervise(conn, tc, sub)
	defer stop()
	if tail.it != nil {
		err := tail.Snapshot(tc.queueBlock, func(r *store.Record) error {
			return tc.queue(wire.Event{Kind: wire.EventTrace, Record: r})
		})
		if err != nil {
			_ = tc.write(wire.Event{Kind: wire.EventError, Error: err.Error()})
			return
		}
		if tc.write(wire.Event{Kind: wire.EventSnapshotEnd}) != nil {
			return
		}
	}
	s.pump(tc, sub)
}

// supervise starts the connection's one reader and, with heartbeats on,
// its pinger. After Subscribe a client may only send pongs, so any other
// frame, EOF, a reset or — with heartbeats on — no frame within two
// intervals (a half-open peer) closes the subscriber. That is the reap
// point: the ring detaches, its obs metrics unregister, and the pump's wait
// ends. The returned stop closes the connection, which ends the reader, and
// waits for both goroutines.
func (s *Server) supervise(conn net.Conn, tc *tailConn, sub *Subscriber) (stop func()) {
	interval := s.heartbeat
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		defer sub.Close()
		for {
			if interval > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(2 * interval))
			}
			var pong wire.Pong
			if tc.wc.ReadFrame(&pong) != nil {
				return // timeout (half-open), EOF, or a protocol violation
			}
		}
	}()
	if interval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for seq := uint64(1); ; seq++ {
				select {
				case <-t.C:
					if tc.write(&wire.Ping{Seq: seq}) != nil {
						sub.Close()
						return
					}
				case <-done:
					return
				}
			}
		}()
	}
	return func() {
		_ = conn.Close()
		wg.Wait()
	}
}

// pump forwards a tail's live events until the client disconnects or the
// subscription closes. Each wakeup drains everything the ring holds and
// queues it as frames; the queued frames are written once the ring is
// empty, before the pump waits for more (and whenever a full write buffer
// or a heartbeat ping writes them sooner).
func (s *Server) pump(tc *tailConn, sub *Subscriber) {
	var (
		batch    []Event
		dropped  uint64
		reported uint64
		ok       bool
		wait     bool
	)
	for {
		batch, dropped, ok = sub.drain(batch[:0], wait)
		if !ok {
			_ = tc.flush() // the tail ends either way; a dead client just misses the rest
			return
		}
		if len(batch) == 0 {
			if tc.flush() != nil {
				return
			}
			wait = true
			continue
		}
		wait = false
		for i := range batch {
			if s.queueEvent(tc, &batch[i], sub.name, dropped, &reported) != nil {
				return
			}
		}
		clear(batch) // release the records until the next wakeup
	}
}

// queueEvent queues one event's frame, attaching the number of events shed
// since the previous frame (dropped is the subscriber's lifetime count) so
// the client's drop accounting stays exact. Traced records carry their
// trace context onto the frame (so the tailer can stitch), and each queued
// frame records a "stream.deliver" child span — the last hop of the
// record's trace tree, marking the frame queued for the subscriber rather
// than written to its socket.
func (s *Server) queueEvent(tc *tailConn, ev *Event, name string, dropped uint64, reported *uint64) error {
	frame := wire.Event{}
	switch ev.Kind {
	case KindTrace:
		frame.Kind = wire.EventTrace
		frame.Record = &ev.Record
		frame.TraceID, frame.SpanID = ev.Record.TraceID, ev.Record.SpanID
	case KindPower:
		frame.Kind = wire.EventPower
		frame.Sample = &ev.Sample
	default:
		return nil
	}
	if dropped > *reported {
		frame.Dropped = dropped - *reported
		*reported = dropped
	}
	err := tc.queue(frame)
	if err == nil && frame.TraceID != 0 && s.spans.Enabled() {
		// A point event at the record's own timestamp: the stream layer has
		// no injected clock (deliveries are wall-time anyway), and what the
		// tree needs is which subscriber got the record, not a duration.
		end := ev.Record.EndTime
		sp := span.Span{TraceID: frame.TraceID, SpanID: s.spans.NewID(), ParentID: frame.SpanID,
			Name: "stream.deliver", Tenant: tc.tenant, Start: end, End: end}
		sp.SetAttr("subscriber", name)
		s.spans.Record(sp)
	}
	return err
}

// subOptions maps a validated Subscribe frame onto broker options.
func subOptions(req wire.Subscribe, conn net.Conn) SubOptions {
	opts := SubOptions{
		Name:   req.Name,
		Buffer: req.Buffer,
		Power:  req.Power,
		Filter: tracedb.Query{
			Device: req.Device, Key: req.Key,
			Procedure: req.Procedure, Run: req.Run,
		},
	}
	if opts.Name == "" {
		opts.Name = conn.RemoteAddr().String()
	}
	if opts.Buffer > maxSubscriberBuffer {
		opts.Buffer = maxSubscriberBuffer
	}
	if req.Policy == wire.PolicyBlock {
		opts.Policy = Block
	}
	return opts
}

// SubscribeError is a subscription failure the server reported explicitly
// (an EventError frame): the request itself was refused — bad tenant,
// missing store, resume point beyond the head. It is permanent for the
// request as sent, which is how ResilientTail tells "redial the same
// subscription" from "this subscription will never work".
type SubscribeError struct {
	Msg string
}

func (e *SubscribeError) Error() string { return "stream: subscription failed: " + e.Msg }

// Client is the tail-consumer side: it dials a stream listener, sends the
// Subscribe frame, and decodes Event frames.
type Client struct {
	conn net.Conn
	wc   *wire.Conn
	idle time.Duration
	// ev is the decode target of every event frame, and rec that of every
	// trace record, whether it came in a frame of its own or in a block;
	// both are reused across Recv calls.
	ev  wire.Event
	rec store.Record
	// block reads the records of the last block event, one per Recv, from
	// ev.Block; the connection keeps those bytes until its next read, which
	// Recv makes only once the block is exhausted.
	block store.BlockReader
}

// Dial connects to a stream listener and subscribes. The request's Op is
// set for the caller.
func Dial(addr string, req wire.Subscribe) (*Client, error) {
	conn, wc, err := wire.Dial(addr, nil)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	req.Op = wire.OpSubscribe
	if err := wc.WriteFrame(req); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("stream: send subscribe: %w", err)
	}
	return &Client{conn: conn, wc: wc}, nil
}

// DialProto is Dial.
//
// Deprecated: the only caller is perfbench, which also builds against older trees.
func DialProto(addr string, req wire.Subscribe, _ wire.Proto) (*Client, error) {
	return Dial(addr, req)
}

// SetIdleTimeout bounds how long Recv will wait for any frame from the
// server before reporting the connection dead. Against a heartbeating
// server (set it comfortably above the ping interval) this is the client
// half of liveness: a half-open connection surfaces as a timeout error
// instead of a Recv that blocks forever. Zero (the default) never times
// out.
func (c *Client) SetIdleTimeout(d time.Duration) { c.idle = d }

// Recv returns the next event, transparently answering the server's
// liveness pings. A frame that carries a block of records yields one
// EventTrace per record, a record per call. A server-reported subscription
// failure is surfaced as a *SubscribeError; io.EOF means the server closed
// the stream.
//
// A trace event's Record is the client's, not the caller's: every Recv
// decodes into the same one, so it is valid only until the next Recv, as
// with bufio.Scanner.Bytes. A caller that keeps a record keeps a copy
// (*ev.Record). The copy aliases nothing Recv reuses: not the record, and
// not the connection's read buffer, which after the next read may hold
// another connection's frames. Its strings are the shared, immutable words
// of store.Intern's table or copies, and its Args a slice of its own; a
// record from a block event takes both from chunks shared with the
// records decoded beside it (store.BlockReader.Next), so a kept copy keeps
// those chunks alive. Close never touches the read buffer, so it may be
// called while Recv blocks.
func (c *Client) Recv() (wire.Event, error) {
	for {
		if c.block.Len() > 0 {
			if err := c.block.Next(&c.rec); err != nil {
				return wire.Event{}, fmt.Errorf("stream: block event: %w", err)
			}
			return wire.Event{Kind: wire.EventTrace, Record: &c.rec}, nil
		}
		if c.idle > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.idle))
		}
		c.ev.Record = &c.rec
		tf := wire.TailFrame{Event: &c.ev}
		if err := c.wc.ReadFrame(&tf); err != nil {
			return wire.Event{}, err
		}
		if tf.Ping != nil {
			// Recv is the connection's only reader and (post-subscribe) only
			// writer, so the pong needs no extra synchronization.
			if err := c.wc.WriteFrame(wire.Pong{Seq: tf.Ping.Seq}); err != nil {
				return wire.Event{}, err
			}
			continue
		}
		if c.ev.Kind == wire.EventError {
			return wire.Event{}, &SubscribeError{Msg: c.ev.Error}
		}
		if c.ev.Block != nil {
			if err := c.block.Reset(c.ev.Block); err != nil {
				return wire.Event{}, fmt.Errorf("stream: block event: %w", err)
			}
			continue
		}
		return c.ev, nil
	}
}

// Close terminates the subscription by closing the connection.
func (c *Client) Close() error { return c.conn.Close() }
