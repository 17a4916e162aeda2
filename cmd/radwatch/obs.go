package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"rad/internal/obs"
	"rad/internal/obs/span"
)

// watchObs polls a radmiddlebox telemetry endpoint (-obs-addr) and
// pretty-prints each snapshot: counters and gauges as name/value pairs,
// histograms with count, mean, and interpolated tail quantiles. limit bounds
// the number of polls (0 = forever).
func watchObs(out io.Writer, addr string, interval time.Duration, limit int) error {
	url := fmt.Sprintf("http://%s/snapshot", addr)
	for n := 0; ; n++ {
		if n > 0 {
			time.Sleep(interval)
		}
		snap, err := fetchSnapshot(url)
		if err != nil {
			return err
		}
		printSnapshot(out, snap)
		if limit > 0 && n+1 >= limit {
			return nil
		}
	}
}

// spanFilter carries the -span-* flags into the /debug/spans query string.
type spanFilter struct {
	min     time.Duration
	tenant  string
	outcome string
	limit   int
}

// watchSpans fetches the middlebox's span flight recorder once
// (/debug/spans JSON, filtered server-side) and pretty-prints the recorder
// accounting, the per-tenant rollups, and each recent trace tree — the
// remote twin of the endpoint's format=text view.
func watchSpans(out io.Writer, addr string, f spanFilter) error {
	q := url.Values{}
	if f.min > 0 {
		q.Set("min", f.min.String())
	}
	if f.tenant != "" {
		q.Set("tenant", f.tenant)
	}
	if f.outcome != "" {
		q.Set("outcome", f.outcome)
	}
	if f.limit > 0 {
		q.Set("limit", fmt.Sprint(f.limit))
	}
	u := fmt.Sprintf("http://%s/debug/spans", addr)
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	var page span.PageJSON
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return fmt.Errorf("decode spans: %w", err)
	}
	st := page.Stats
	fmt.Fprintf(out, "spans: %d buffered, %d recorded, %d evicted, %d sampled out\n",
		st.Buffered, st.Recorded, st.Evicted, st.Sampled)
	for _, r := range page.Rollups {
		tenant := r.Tenant
		if tenant == "" {
			tenant = "(untenanted)"
		}
		fmt.Fprintf(out, "tenant %-24s %d spans, %d errors, max %s\n",
			tenant, r.Spans, r.Errors, r.Max.Round(time.Microsecond))
	}
	if len(page.Roots) == 0 {
		fmt.Fprintln(out, "no trace trees match")
		return nil
	}
	span.WriteTrees(out, page.Roots)
	return nil
}

func fetchSnapshot(url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := http.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode snapshot: %w", err)
	}
	return snap, nil
}

// printSnapshot renders one poll. Zero-valued counters are elided so a quiet
// middlebox prints a short report, not its whole instrument catalog.
func printSnapshot(out io.Writer, snap obs.Snapshot) {
	fmt.Fprintf(out, "--- metrics @ %s ---\n", time.Now().Format("15:04:05"))
	for _, c := range snap.Counters {
		if c.Value == 0 {
			continue
		}
		fmt.Fprintf(out, "%-60s %d\n", metricKey(c.Name, c.Labels), c.Value)
	}
	for _, g := range snap.Gauges {
		if g.Value == 0 {
			continue
		}
		fmt.Fprintf(out, "%-60s %g\n", metricKey(g.Name, g.Labels), g.Value)
	}
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		mean := h.SumSeconds / float64(h.Count)
		fmt.Fprintf(out, "%-60s count=%d mean=%s p50=%s p90=%s p99=%s\n",
			metricKey(h.Name, h.Labels), h.Count, fmtSeconds(mean),
			fmtSeconds(h.Quantile(0.50)), fmtSeconds(h.Quantile(0.90)), fmtSeconds(h.Quantile(0.99)))
	}
}

// metricKey renders a Prometheus-style name{label="value",...} key with
// labels in sorted order.
func metricKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// fmtSeconds renders a duration in seconds with a human-scaled unit.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
