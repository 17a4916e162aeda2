package wire

import (
	"time"

	"rad/internal/obs"
)

// codecBuckets resolve the sub-microsecond latencies the frame codec runs
// at; the default buckets start at 1µs, which would fold every encode into
// one bin.
var codecBuckets = []time.Duration{
	100 * time.Nanosecond, 250 * time.Nanosecond, 500 * time.Nanosecond,
	1 * time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 1 * time.Millisecond,
	10 * time.Millisecond,
}

// Metrics instruments the wire layer: connection and frame counters plus
// encode/decode latency histograms, so the marshalling cost of a live
// deployment is visible on the telemetry endpoint. A nil *Metrics (the
// default everywhere) keeps every path uninstrumented and free.
//
// Frame timings are measured with the real clock around the marshal step
// only — never around socket I/O — so the histograms price the codec, not
// the network.
type Metrics struct {
	conns    *obs.Counter // connections that completed the handshake
	rx, tx   *obs.Counter // frames decoded / encoded
	dec, enc *obs.Histogram
}

// NewMetrics registers the wire instruments in reg and returns the handle
// a Conn carries. Registration is idempotent per registry: the obs layer
// dedupes by name and label set, so several listeners observing the same
// registry share one set of instruments.
func NewMetrics(reg *obs.Registry) *Metrics {
	reg.SetHelp("rad_wire_connections_total", "Connections that completed the wire handshake.")
	reg.SetHelp("rad_wire_frames_total", "Frames moved, by direction.")
	reg.SetHelp("rad_wire_decode_seconds", "Frame decode (unmarshal) latency.")
	reg.SetHelp("rad_wire_encode_seconds", "Frame encode (marshal) latency.")
	return &Metrics{
		conns: reg.Counter("rad_wire_connections_total"),
		rx:    reg.Counter("rad_wire_frames_total", "dir", "rx"),
		tx:    reg.Counter("rad_wire_frames_total", "dir", "tx"),
		dec:   reg.Histogram("rad_wire_decode_seconds", codecBuckets),
		enc:   reg.Histogram("rad_wire_encode_seconds", codecBuckets),
	}
}
