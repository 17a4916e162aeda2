package stream

import (
	"strconv"

	"rad/internal/obs"
)

// brokerObs holds the broker's registry handle for the dynamic
// per-subscriber metric lifecycle.
type brokerObs struct {
	reg *obs.Registry
}

// Observe registers the broker's metrics into reg: lifetime publish and
// delivery totals (which survive subscriber churn) plus per-subscriber
// delivery counters and ring-occupancy gauges that are registered at
// Subscribe time and unregistered when the subscriber detaches —
// the standard per-connection child-metric pattern. Everything is
// pull-based except the two lifetime atomics the Recv/drop paths already
// pay for.
func (b *Broker) Observe(reg *obs.Registry) {
	reg.SetHelp("rad_stream_published_total", "Trace events offered to the fan-out.")
	reg.CounterFunc("rad_stream_published_total", b.published.Load)
	reg.SetHelp("rad_stream_delivered_total", "Events handed to consumers, all subscribers ever.")
	reg.CounterFunc("rad_stream_delivered_total", b.delivered.Load)
	reg.SetHelp("rad_stream_dropped_total", "Events shed under DropOldest, all subscribers ever.")
	reg.CounterFunc("rad_stream_dropped_total", b.dropped.Load)
	reg.SetHelp("rad_stream_subscribers", "Live subscribers attached to the broker.")
	reg.GaugeFunc("rad_stream_subscribers", func() float64 {
		b.mu.RLock()
		defer b.mu.RUnlock()
		return float64(len(b.subs))
	})

	b.mu.Lock()
	defer b.mu.Unlock()
	b.obs = &brokerObs{reg: reg}
	for _, s := range b.subs {
		b.observeSubLocked(s)
	}
}

// observeSubLocked registers one subscriber's child metrics. Caller holds
// b.mu; the subscriber is not yet receiving concurrent offers through this
// broker registration, so writing s.obsLabels is safe.
func (b *Broker) observeSubLocked(s *Subscriber) {
	reg := b.obs.reg
	id := strconv.FormatUint(b.nextSubID.Add(1), 10)
	s.obsLabels = []string{"name", s.name, "id", id}
	reg.SetHelp("rad_stream_subscriber_buffered", "Events waiting in the subscriber's ring.")
	reg.GaugeFunc("rad_stream_subscriber_buffered", func() float64 {
		return float64(s.Stats().Buffered)
	}, s.obsLabels...)
	reg.CounterFunc("rad_stream_subscriber_delivered_total", func() uint64 {
		return s.Stats().Delivered
	}, s.obsLabels...)
	reg.CounterFunc("rad_stream_subscriber_dropped_total", func() uint64 {
		return s.Stats().Dropped
	}, s.obsLabels...)
}

// unobserveSub drops a detached subscriber's child metrics.
func (o *brokerObs) unobserveSub(s *Subscriber) {
	if s.obsLabels == nil {
		return
	}
	o.reg.Unregister("rad_stream_subscriber_buffered", s.obsLabels...)
	o.reg.Unregister("rad_stream_subscriber_delivered_total", s.obsLabels...)
	o.reg.Unregister("rad_stream_subscriber_dropped_total", s.obsLabels...)
	s.obsLabels = nil
}
