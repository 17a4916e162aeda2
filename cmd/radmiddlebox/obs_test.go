package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rad/internal/deploy"
	"rad/internal/device"
	"rad/internal/obs"
	"rad/internal/simclock"
	"rad/internal/tracer"
)

// promLine matches one Prometheus text-format sample: a metric name, an
// optional label set, and a value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestObsMiddleboxMetricsEndpoint boots the CLI with -obs-addr, drives
// commands through it, and checks /metrics returns parseable Prometheus text
// covering the middlebox, tracedb, stream, and fault layers — the PR's
// acceptance criterion — and that /snapshot returns the same data as JSON.
func TestObsMiddleboxMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "tracedb")

	ready = make(chan deploy.Addrs, 1)
	defer func() { ready = nil }()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-store", storeDir, "-trace", "",
			"-network", "none", "-stream", "127.0.0.1:0",
			"-obs-addr", "127.0.0.1:0",
			// Faults active (so the injection counters register) but with
			// every disruptive kind zeroed: only latency spikes remain, and
			// the driven commands below succeed deterministically.
			"-fault-profile", "flaky,hang=0,drop=0,reset=0,garble=0,sink=0",
		}, stop)
	}()

	var addr, obsAddr string
	select {
	case a := <-ready:
		addr, obsAddr = a.Exec, a.Obs
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never came up")
	}

	transport, err := tracer.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := tracer.NewSession(transport, simclock.Real{}, tracer.Config{DefaultMode: tracer.ModeRemote})
	dev, err := sess.Virtual(device.C9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: device.Init}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Exec(device.Command{Name: "MVNG"}); err != nil {
		t.Fatal(err)
	}
	_ = sess.Close()

	// /metrics is parseable Prometheus text naming every layer's families.
	body := httpGet(t, fmt.Sprintf("http://%s/metrics", obsAddr))
	samples := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("/metrics returned no samples")
	}
	for _, family := range []string{
		"rad_middlebox_requests_total",
		"rad_middlebox_exec_seconds_bucket",
		"rad_tracedb_append_seconds_bucket",
		"rad_tracedb_records",
		"rad_stream_published_total",
		"rad_fault_injected_total",
		"rad_middlebox_sink_errors_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// The driven commands are visible in the exec histogram.
	if !strings.Contains(body, `rad_middlebox_exec_seconds_count{command="MVNG",device="C9"} 1`) {
		t.Errorf("exec histogram missing the MVNG observation:\n%s", body)
	}

	// /snapshot returns the same registry as JSON.
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("http://%s/snapshot", obsAddr))), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("snapshot empty: %d counters, %d histograms", len(snap.Counters), len(snap.Histograms))
	}
	execSeen := false
	for _, h := range snap.Histograms {
		if h.Name == "rad_middlebox_exec_seconds" && h.Count > 0 {
			execSeen = true
		}
	}
	if !execSeen {
		t.Error("snapshot has no exec_seconds observations")
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never shut down")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
