package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// MuxOptions extends the telemetry mux with the endpoints whose state lives
// outside the registry. Both fields are optional.
type MuxOptions struct {
	// Health backs /healthz: return true while the process should receive
	// traffic, false once draining has begun. Nil serves a plain always-200
	// /healthz — a process with no drain notion is healthy while it is up.
	Health func() bool
	// Spans, when set, is mounted at /debug/spans (span.Handler over the
	// process's flight recorder).
	Spans http.Handler
}

// ServeMux builds the live telemetry endpoint over a registry:
//
//	/metrics        Prometheus text exposition
//	/snapshot       the JSON Snapshot (radwatch -obs polls this)
//	/healthz        200 while serving, 503 once opts.Health reports draining
//	/debug/spans    opts.Spans, when set
//	/debug/pprof/   the standard Go profiling handlers
//	/               a plain-text index of the above
//
// radmiddlebox mounts this on -obs-addr; anything that can scrape
// Prometheus or hit an HTTP endpoint can watch the middlebox live.
func ServeMux(r *Registry, opts MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Health != nil && !opts.Health() {
			// Draining: tell the orchestrator to stop routing here before
			// SIGTERM severs the remaining connections.
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("draining\n"))
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	})
	if opts.Spans != nil {
		mux.Handle("/debug/spans", opts.Spans)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		index := "rad observability endpoint\n\n  /metrics       Prometheus text exposition\n  /snapshot      JSON metrics snapshot\n  /healthz       readiness (503 while draining)\n"
		if opts.Spans != nil {
			index += "  /debug/spans   recent trace trees (JSON; ?format=text)\n"
		}
		index += "  /debug/pprof/  Go profiling\n"
		_, _ = w.Write([]byte(index))
	})
	return mux
}
