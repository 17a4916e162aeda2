// Package store implements the trace-sink side of RATracer: the trace-record
// schema ("timestamp, function, arguments, return values, exceptions" —
// Fig. 3), an in-memory document store standing in for the paper's MongoDB
// instance, and CSV/JSONL writers standing in for its .csv export.
package store

import (
	"strings"
	"time"
)

// Record is one trace object in the command dataset: a single command
// instance with everything RATracer logs about it (§III, Fig. 3).
type Record struct {
	// Seq is a monotonically increasing sequence number assigned by the sink.
	Seq uint64 `json:"seq"`
	// Time and EndTime bracket the command's execution as observed at the
	// interception point.
	Time    time.Time `json:"time"`
	EndTime time.Time `json:"endTime"`
	// Device and Name identify the command type (one of the 52 in the
	// catalog); Args are the stringified arguments.
	Device string   `json:"device"`
	Name   string   `json:"name"`
	Args   []string `json:"args,omitempty"`
	// Response is the device's return value; Exception carries the error
	// string when the command failed (e.g. a collision fault).
	Response  string `json:"response,omitempty"`
	Exception string `json:"exception,omitempty"`
	// Procedure labels supervised runs with their procedure type (P1–P6,
	// Joystick); everything else is labelled UnknownProcedure (§IV).
	Procedure string `json:"procedure"`
	// Run identifies the specific supervised procedure run (e.g. "run-17");
	// empty for unsupervised activity.
	Run string `json:"run,omitempty"`
	// Mode records whether the command was traced in DIRECT or REMOTE mode.
	Mode string `json:"mode,omitempty"`

	// TraceID/SpanID carry the in-process trace context of the exec that
	// produced this record (internal/obs/span). They are observability-only
	// plumbing — deliberately excluded from JSON, CSV, the record encoding
	// (AppendRecord), and campaign digests — so the persisted dataset and
	// its byte-identity contracts are unchanged by tracing; a wire event
	// carries them in fields of its own. Zero means untraced.
	TraceID uint64 `json:"-"`
	SpanID  uint64 `json:"-"`
}

// UnknownProcedure is the label applied to all commands that were not part
// of a supervised run: "all other commands are labeled 'unknown procedure'".
const UnknownProcedure = "unknown procedure"

// Key returns the command-type identifier "Device.Name".
func (r Record) Key() string { return r.Device + "." + r.Name }

// Latency returns the command's observed response time.
func (r Record) Latency() time.Duration { return r.EndTime.Sub(r.Time) }

// joinArgs renders arguments for the CSV export.
func joinArgs(args []string) string { return strings.Join(args, "|") }

// splitArgs parses the CSV argument encoding back into a slice.
func splitArgs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "|")
}
