package wire

// This file extends the wire protocol with the live-tail frames served by a
// middlebox's stream listener (internal/stream). A tail connection carries
// exactly one client → server Subscribe frame followed by a server → client
// sequence of Event frames; the client unsubscribes by closing the
// connection. Filters travel in the Subscribe frame so they are applied on
// the server side, before events are buffered for the connection — the
// pushdown that keeps a narrow tail cheap no matter how busy the lab is.

import (
	"fmt"

	"rad/internal/power"
	"rad/internal/store"
)

// OpSubscribe is the operation carried by a Subscribe frame. It shares the
// Op namespace with the request ops so a stream listener can reject a
// regular RPC frame (and vice versa) with a precise error.
const OpSubscribe Op = "subscribe"

// Subscriber overflow policies, as spelled in a Subscribe frame.
const (
	// PolicyDropOldest sheds the oldest buffered event when the tail falls
	// behind, counting the loss. The default: a slow tailer never stalls
	// the middlebox's trace hot path.
	PolicyDropOldest = "drop-oldest"
	// PolicyBlock makes the publisher wait for buffer space — lossless
	// delivery for consumers (e.g. an online IDS) that must see every
	// record, at the price of backpressure on the trace path.
	PolicyBlock = "block"
)

// Subscribe is the first (and only) frame a tail client sends.
type Subscribe struct {
	Op Op `json:"op"`
	// Name labels the subscriber in the middlebox's stream statistics;
	// empty defaults to the connection's remote address.
	Name string `json:"name,omitempty"`

	// Trace filters (conjunctive; empty matches everything).
	Device    string `json:"device,omitempty"`
	Key       string `json:"key,omitempty"` // command type "Device.Name"
	Procedure string `json:"procedure,omitempty"`
	Run       string `json:"run,omitempty"`

	// Snapshot asks for snapshot-then-follow: every matching record already
	// committed to the middlebox's trace store is replayed (in sequence
	// order, exactly once) before live delivery begins; the boundary is
	// marked with an EventSnapshotEnd frame.
	Snapshot bool `json:"snapshot,omitempty"`
	// Power includes the UR3e power-telemetry feed alongside trace events.
	Power bool `json:"power,omitempty"`

	// Policy selects the overflow behaviour (PolicyDropOldest when empty);
	// Buffer is the per-subscriber ring capacity (server-clamped).
	Policy string `json:"policy,omitempty"`
	Buffer int    `json:"buffer,omitempty"`

	// Tenant addresses one lab instance behind a fleet listener; empty means
	// the listener's default tenant (see wire.Request.Tenant).
	Tenant string `json:"tenant,omitempty"`

	// ResumeFrom, when non-zero, asks the server to resume a broken tail:
	// replay every matching record with sequence number >= ResumeFrom from
	// the persistent store, then follow live — a gap-free, duplicate-free
	// continuation for a client that already delivered [0, ResumeFrom).
	// Like Tenant, the field is omitted from the frame when zero, as for
	// every fresh subscription. Sequence numbers start at zero, so "resume
	// from the beginning" is ResumeFrom=0 with Snapshot set.
	//
	// When ResumeFrom predates the store's retention floor the server
	// cannot honor it exactly: it sends an EventResumeGap notice carrying
	// the number of unrecoverable records, then a full snapshot of what
	// retention kept — graceful degradation, never an error.
	ResumeFrom uint64 `json:"resumeFrom,omitempty"`
}

// Validate reports whether the frame is a well-formed subscription.
func (s Subscribe) Validate() error {
	if s.Op != OpSubscribe {
		return fmt.Errorf("wire: subscribe frame has op %q, want %q", s.Op, OpSubscribe)
	}
	switch s.Policy {
	case "", PolicyDropOldest, PolicyBlock:
	default:
		return fmt.Errorf("wire: unknown overflow policy %q", s.Policy)
	}
	if s.Buffer < 0 {
		return fmt.Errorf("wire: negative buffer %d", s.Buffer)
	}
	return nil
}

// Event frame kinds.
const (
	// EventTrace carries one trace record.
	EventTrace = "trace"
	// EventPower carries one power-telemetry sample.
	EventPower = "power"
	// EventSnapshotEnd marks the end of the historical replay: every
	// subsequent trace event was committed after the subscription attached.
	EventSnapshotEnd = "snapshot-end"
	// EventError reports a subscription failure; the server closes the
	// connection after sending it.
	EventError = "error"
	// EventResumeGap warns a resuming client that Subscribe.ResumeFrom
	// predates the store's retention floor: Event.Gap records lost to
	// retention cannot be replayed, and the snapshot that follows starts at
	// the floor instead. The tail continues — degraded, and saying so.
	EventResumeGap = "resume-gap"
)

// Event is one server → client tail frame.
type Event struct {
	Kind   string        `json:"kind"`
	Record *store.Record `json:"record,omitempty"`
	Sample *power.Sample `json:"sample,omitempty"`
	// Dropped is the number of events shed for this subscriber (drop-oldest
	// policy) since the previous frame — the drop accounting a tailer needs
	// to know its view has holes.
	Dropped uint64 `json:"dropped,omitempty"`
	Error   string `json:"error,omitempty"`
	// Gap, on an EventResumeGap frame, is the number of records between the
	// requested resume point and the store's retention floor — replay the
	// client asked for that retention has already discarded.
	Gap uint64 `json:"gap,omitempty"`
	// TraceID/SpanID carry the trace context of the exec that produced this
	// event's record (internal/obs/span), so a tailer can stitch delivery
	// into the originating request's tree. Zero means untraced; omitted from
	// the frame entirely when zero.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`
}

// Ping is a server → client liveness probe on a tail connection; the
// client answers with a Pong echoing the sequence number.
type Ping struct {
	Seq uint64 `json:"seq"`
}

// Pong is the client's answer to a Ping.
type Pong struct {
	Seq uint64 `json:"seq"`
}

// TailFrame is what a tail client reads after subscribing: either an Event
// or a liveness Ping (exactly one field is set).
type TailFrame struct {
	Event *Event
	Ping  *Ping
}
