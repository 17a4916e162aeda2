package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// healthGet issues GET /healthz against a mux and returns status and body.
func healthGet(t *testing.T, mux *http.ServeMux) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

// TestObsPrometheusConformance pins the text exposition format over a fully
// instrumented registry — counters with and without labels, pull-based
// families, and a histogram — against a golden render, then checks the two
// format invariants scrape tooling depends on: each family announced
// exactly once, and every line lexing as valid exposition syntax.
func TestObsPrometheusConformance(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("conf_reqs_total", "Requests handled.")
	reg.Counter("conf_reqs_total", "op", "exec").Add(3)
	reg.Counter("conf_reqs_total", "op", "trace").Add(1)
	reg.GaugeFunc("conf_depth", func() float64 { return -2 })
	reg.CounterFunc("conf_pull_total", func() uint64 { return 9 })
	reg.GaugeFunc("conf_ratio", func() float64 { return 0.25 })
	reg.Counter(`conf_escaped_total`, "path", "a\\b\"c\nd").Inc()
	h := reg.Histogram("conf_lat_seconds", []time.Duration{time.Millisecond, time.Second})
	h.Observe(500 * time.Microsecond)
	h.ObserveExemplar(2*time.Second, 0xabc)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := `# TYPE conf_depth gauge
conf_depth -2
# TYPE conf_escaped_total counter
conf_escaped_total{path="a\\b\"c\nd"} 1
# TYPE conf_lat_seconds histogram
conf_lat_seconds_bucket{le="0.001"} 1
conf_lat_seconds_bucket{le="1"} 1
conf_lat_seconds_bucket{le="+Inf"} 2
conf_lat_seconds_sum 2.0005
conf_lat_seconds_count 2
# TYPE conf_pull_total counter
conf_pull_total 9
# TYPE conf_ratio gauge
conf_ratio 0.25
# HELP conf_reqs_total Requests handled.
# TYPE conf_reqs_total counter
conf_reqs_total{op="exec"} 3
conf_reqs_total{op="trace"} 1
`
	if got != golden {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}

	// Each family must carry exactly one # TYPE line, and HELP must precede
	// TYPE — scrapers treat a repeated family announcement as a parse error.
	seen := map[string]bool{}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fam := strings.Fields(line)[2]
		if seen[fam] {
			t.Fatalf("family %q announced twice", fam)
		}
		seen[fam] = true
		if i > 0 && strings.HasPrefix(lines[i-1], "# HELP ") {
			if strings.Fields(lines[i-1])[2] != fam {
				t.Fatalf("HELP/TYPE family mismatch at line %d", i)
			}
		}
	}

	// Every sample line must lex as exposition syntax: a valid metric name,
	// an optional label block with valid label names, and a float value.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9+.eEIinf]+$`)
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("sample line fails exposition lexing: %q", line)
		}
	}

	// Label names must reject characters outside [a-zA-Z0-9_]; the registry
	// enforces this at registration time by panicking.
	for _, bad := range []string{"bad-key", "0lead", "sp ace", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("label key %q accepted", bad)
				}
			}()
			NewRegistry().Counter("conf_x_total", bad, "v")
		}()
	}
}

// TestObsHealthzDrainAware pins the /healthz contract: 200 while the health
// callback reports serving, 503 the moment it reports draining, and plain
// 200 when no callback is wired.
func TestObsHealthzDrainAware(t *testing.T) {
	serving := true
	mux := ServeMux(NewRegistry(), MuxOptions{Health: func() bool { return serving }})

	if code, body := healthGet(t, mux); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("serving healthz = %d %q", code, body)
	}
	serving = false
	if code, body := healthGet(t, mux); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("draining healthz = %d %q", code, body)
	}

	plain := ServeMux(NewRegistry(), MuxOptions{})
	if code, _ := healthGet(t, plain); code != 200 {
		t.Fatalf("default healthz = %d", code)
	}
}

// TestObsRuntimeMetrics checks the Go runtime telemetry families render
// with plausible live values.
func TestObsRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"rad_go_goroutines", "rad_go_heap_inuse_bytes", "rad_go_heap_alloc_bytes",
		"rad_go_gc_pause_p99_seconds", "rad_go_gc_cycles_total",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Fatalf("runtime family %q missing:\n%s", fam, out)
		}
	}
	snap := reg.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "rad_go_goroutines" {
			found = true
			if g.Value < 1 {
				t.Fatalf("goroutines = %v", g.Value)
			}
		}
	}
	if !found {
		t.Fatal("rad_go_goroutines missing from snapshot")
	}
}
