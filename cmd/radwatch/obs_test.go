package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rad/internal/obs"
)

// TestObsWatchPollsSnapshot serves a registry over HTTP and checks the -obs
// mode fetches /snapshot and renders counters, gauges, and histogram
// quantiles, eliding zero-valued instruments.
func TestObsWatchPollsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rad_middlebox_requests_total", "op", "exec").Add(7)
	reg.Counter("rad_middlebox_exec_shed_total") // stays zero: must be elided
	reg.Gauge("rad_tracedb_records").Set(42)
	h := reg.Histogram("rad_middlebox_exec_seconds", obs.DefaultLatencyBuckets,
		"device", "C9", "command", "MVNG")
	for i := 0; i < 10; i++ {
		h.Observe(250 * time.Millisecond)
	}

	srv := httptest.NewServer(obs.ServeMux(reg))
	defer srv.Close()

	var sb strings.Builder
	if err := run([]string{"-obs", srv.Listener.Addr().String(), "-limit", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rad_middlebox_requests_total{op="exec"}`,
		"rad_tracedb_records",
		`rad_middlebox_exec_seconds{command="MVNG",device="C9"}`,
		"count=10",
		"p99=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rad_middlebox_exec_shed_total") {
		t.Errorf("zero counter not elided:\n%s", out)
	}
	// The rendered p50 interpolates inside the bucket containing 250ms.
	if !strings.Contains(out, "p50=") {
		t.Errorf("no p50 in output:\n%s", out)
	}
}

// TestObsWatchRejectsDeadEndpoint: a refused connection is a clean error,
// not a hang.
func TestObsWatchRejectsDeadEndpoint(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-obs", "127.0.0.1:1", "-limit", "1"}, &sb); err == nil {
		t.Fatal("expected error polling dead endpoint")
	}
}
