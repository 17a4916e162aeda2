package store

import (
	"sync/atomic"

	"rad/internal/obs/span"
)

// FailoverSink makes a primary sink's Append path lossless under write
// errors: a record the primary refuses is spilled to a disk-backed
// DeadLetterQueue instead of being dropped, and the append reports success
// — the record is accepted, just deferred. Re-ingest the queue into the
// primary once it recovers (tracedb.DB.Reingest, or any Drain loop).
//
// A record lands in the primary or the DLQ, never both, because the
// primaries used here (MemStore, tracedb.DB, or a fault.FlakySink over
// either) refuse only records they did not commit: a refused record got no
// sequence number and no commit hook saw it.
type FailoverSink struct {
	primary Sink
	dlq     *DeadLetterQueue

	// spans, when attached, records a "dlq.spill" span for every traced
	// record the primary refused — the spill becomes visible in the
	// record's trace tree, not just in aggregate counters. Immutable after
	// SetSpans; nil-safe.
	spans      *span.Recorder
	spanTenant string

	primaryErrs atomic.Uint64
}

var _ Sink = (*FailoverSink)(nil)

// NewFailoverSink wraps primary with spill-to-dlq failover.
func NewFailoverSink(primary Sink, dlq *DeadLetterQueue) *FailoverSink {
	return &FailoverSink{primary: primary, dlq: dlq}
}

// SetSpans attaches a span flight recorder for spill provenance; tenant
// (may be empty) tags the spans. Call before serving traffic.
func (s *FailoverSink) SetSpans(r *span.Recorder, tenant string) {
	s.spans = r
	s.spanTenant = tenant
}

// recordSpill emits a "dlq.spill" span when the refused record is traced.
// The span is a point event at the record's own end time: the store has no
// clock (by design — virtual-clock campaigns must stay deterministic), and
// the spill's significance is which trace it happened to, not how long the
// disk write took.
func (s *FailoverSink) recordSpill(r *Record) {
	if r.TraceID == 0 || !s.spans.Enabled() {
		return
	}
	sp := span.Span{TraceID: r.TraceID, SpanID: s.spans.NewID(), ParentID: r.SpanID,
		Name: "dlq.spill", Tenant: s.spanTenant, Outcome: span.OutcomeError,
		Start: r.EndTime, End: r.EndTime}
	sp.SetAttr("device", r.Device)
	s.spans.Record(sp)
}

// Append implements Sink. It only fails when both the primary and the
// dead-letter disk refuse the record.
func (s *FailoverSink) Append(r Record) error {
	if err := s.primary.Append(r); err != nil {
		s.primaryErrs.Add(1)
		s.recordSpill(&r)
		return s.dlq.Spill([]Record{r})
	}
	return nil
}

// FailoverStats counts the sink's failover activity.
type FailoverStats struct {
	PrimaryErrors uint64 // appends the primary refused
	DLQStats             // what the queue absorbed
}

// Stats snapshots the failover counters.
func (s *FailoverSink) Stats() FailoverStats {
	return FailoverStats{
		PrimaryErrors: s.primaryErrs.Load(),
		DLQStats:      s.dlq.Stats(),
	}
}
