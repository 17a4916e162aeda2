package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestObsHTTPEndpoints exercises the mux the middlebox mounts on
// -obs-addr: the Prometheus exposition, the JSON snapshot, the pprof
// index, and the plain-text root.
func TestObsHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("http_reqs_total", "op", "exec").Add(3)
	reg.Histogram("http_lat_seconds", nil).Observe(5 * time.Millisecond)
	srv := httptest.NewServer(ServeMux(reg, MuxOptions{}))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE http_reqs_total counter",
		`http_reqs_total{op="exec"} 3`,
		"# TYPE http_lat_seconds histogram",
		"http_lat_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	snapshot, ctype := get("/snapshot")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/snapshot content type = %q", ctype)
	}
	if !strings.Contains(snapshot, `"http_reqs_total"`) || !strings.Contains(snapshot, `"sumSeconds": 0.005`) {
		t.Fatalf("/snapshot payload wrong:\n%s", snapshot)
	}

	if idx, _ := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
	if root, _ := get("/"); !strings.Contains(root, "/metrics") {
		t.Fatalf("root index missing endpoint listing:\n%s", root)
	}

	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}
}
