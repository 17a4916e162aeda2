package span

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// SpanJSON is the wire shape of one span on /debug/spans. Ids are rendered
// as 16-digit hex strings — JSON numbers lose precision past 2^53.
type SpanJSON struct {
	TraceID  string        `json:"traceId"`
	SpanID   string        `json:"spanId"`
	ParentID string        `json:"parentId,omitempty"`
	Name     string        `json:"name"`
	Tenant   string        `json:"tenant,omitempty"`
	Outcome  string        `json:"outcome"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNanos"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// TreeJSON is one trace tree on /debug/spans.
type TreeJSON struct {
	Span     SpanJSON   `json:"span"`
	Children []TreeJSON `json:"children,omitempty"`
}

// PageJSON is the full /debug/spans JSON document.
type PageJSON struct {
	Roots   []TreeJSON     `json:"roots"`
	Stats   Stats          `json:"stats"`
	Rollups []TenantRollup `json:"rollups,omitempty"`
}

// FormatID renders a span/trace id the way the JSON surface does.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

func toJSON(s *Span) SpanJSON {
	j := SpanJSON{
		TraceID:  FormatID(s.TraceID),
		SpanID:   FormatID(s.SpanID),
		Name:     s.Name,
		Tenant:   s.Tenant,
		Outcome:  s.Outcome,
		Start:    s.Start,
		Duration: s.Duration(),
	}
	if s.ParentID != 0 {
		j.ParentID = FormatID(s.ParentID)
	}
	if j.Outcome == "" {
		j.Outcome = OutcomeOK
	}
	if n := len(s.Attrs()); n > 0 {
		j.Attrs = append([]Attr(nil), s.Attrs()...)
	}
	return j
}

// TreesJSON converts assembled trees into their wire shape.
func TreesJSON(trees []*Tree) []TreeJSON {
	out := make([]TreeJSON, 0, len(trees))
	for _, t := range trees {
		out = append(out, TreeJSON{Span: toJSON(&t.Span), Children: TreesJSON(t.Children)})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// WriteTrees renders trace trees as indented human text — the /debug/spans
// text view, and what radwatch -spans prints after pulling the JSON.
func WriteTrees(w io.Writer, trees []TreeJSON) {
	for _, t := range trees {
		writeTree(w, t, 0)
	}
}

func writeTree(w io.Writer, t TreeJSON, depth int) {
	indent := strings.Repeat("  ", depth)
	if depth == 0 {
		fmt.Fprintf(w, "%strace %s\n", indent, t.Span.TraceID)
	}
	line := fmt.Sprintf("%s  %-24s %10s  %s", indent, t.Span.Name, t.Span.Duration.Round(time.Microsecond), t.Span.Outcome)
	if t.Span.Tenant != "" {
		line += "  tenant=" + t.Span.Tenant
	}
	for _, a := range t.Span.Attrs {
		line += "  " + a.Key + "=" + a.Value
	}
	fmt.Fprintln(w, line)
	for _, c := range t.Children {
		writeTree(w, c, depth+1)
	}
}

// Handler serves the recorder on /debug/spans.
//
// Query parameters:
//
//	min=DUR      only roots at least DUR long (Go duration, e.g. 50ms)
//	tenant=ID    only roots tagged with tenant ID
//	outcome=S    only roots with outcome S (ok|error|timeout|shed|...)
//	limit=N      at most N roots, most recent first (default 50)
//	format=text  human text instead of JSON
func Handler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		f := Filter{Limit: 50}
		if v := q.Get("min"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "bad min: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.MinDuration = d
		}
		f.Tenant = q.Get("tenant")
		f.Outcome = q.Get("outcome")
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		page := PageJSON{
			Roots:   TreesJSON(r.Roots(f)),
			Stats:   r.Stats(),
			Rollups: r.Rollup(),
		}
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			st := page.Stats
			fmt.Fprintf(w, "spans: %d buffered, %d recorded, %d evicted, %d sampled out\n",
				st.Buffered, st.Recorded, st.Evicted, st.Sampled)
			WriteTrees(w, page.Roots)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(page)
	})
}
