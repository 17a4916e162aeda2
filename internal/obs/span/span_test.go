package span

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

func TestSpanNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if id := r.NewID(); id != 0 {
		t.Fatalf("nil NewID = %d", id)
	}
	if ctx := r.NewContext(); ctx.Valid() {
		t.Fatalf("nil NewContext = %+v", ctx)
	}
	if ctx, parent := r.Adopt(Context{TraceID: 7, SpanID: 9}); ctx.Valid() || parent != 0 {
		t.Fatalf("nil Adopt = %+v parent %d", ctx, parent)
	}
	r.Record(Span{TraceID: 1, SpanID: 2})
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
	if got := r.Spans(); got != nil {
		t.Fatalf("nil Spans = %v", got)
	}
	if got := r.Roots(Filter{}); got != nil {
		t.Fatalf("nil Roots = %v", got)
	}
	if got := r.Rollup(); got != nil {
		t.Fatalf("nil Rollup = %v", got)
	}
}

func TestSpanRingEvictionAccounting(t *testing.T) {
	r := NewRecorder(Config{Buffer: 4})
	for i := 0; i < 10; i++ {
		r.Record(Span{TraceID: uint64(i + 1), SpanID: uint64(i + 1), Name: "s", Start: at(i), End: at(i + 1)})
	}
	st := r.Stats()
	if st.Recorded != 10 {
		t.Fatalf("Recorded = %d, want 10", st.Recorded)
	}
	if st.Evicted != 6 {
		t.Fatalf("Evicted = %d, want 6", st.Evicted)
	}
	if st.Buffered != 4 {
		t.Fatalf("Buffered = %d, want 4", st.Buffered)
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("len(Spans) = %d, want 4", len(spans))
	}
	// Drop-oldest: the survivors are the last four recorded, oldest first.
	for i, s := range spans {
		if want := uint64(7 + i); s.TraceID != want {
			t.Fatalf("span %d trace = %d, want %d", i, s.TraceID, want)
		}
	}
}

// TestSpanRingKeepsNewestAcrossGoroutines records from goroutines that
// take turns, each filling the whole ring and staying alive until the
// last has recorded (so no two share a stack). Drop-oldest is global:
// whichever goroutine recorded them, the ring keeps exactly the newest
// Buffer spans, in record order, and Evicted counts every other span.
func TestSpanRingKeepsNewestAcrossGoroutines(t *testing.T) {
	const buffer, goroutines = 64, 4
	r := NewRecorder(Config{Buffer: buffer})
	var id uint64
	turn := make([]chan struct{}, goroutines+1)
	for g := range turn {
		turn[g] = make(chan struct{})
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-turn[g]
			for i := 0; i < buffer; i++ {
				id++
				r.Record(Span{TraceID: id, SpanID: id, Name: "s", Start: at(int(id)), End: at(int(id) + 1)})
			}
			close(turn[g+1])
			<-release
		}(g)
	}
	close(turn[0])
	<-turn[goroutines]
	spans := r.Spans()
	st := r.Stats()
	close(release)
	wg.Wait()
	if len(spans) != buffer {
		t.Fatalf("len(Spans) = %d, want %d", len(spans), buffer)
	}
	for i, s := range spans {
		if want := id - buffer + 1 + uint64(i); s.TraceID != want {
			t.Fatalf("span %d trace = %d, want %d: the ring kept an older span", i, s.TraceID, want)
		}
	}
	if st.Recorded != id || st.Evicted != id-buffer || st.Buffered != buffer {
		t.Fatalf("stats = %+v, want %d recorded, %d evicted, %d buffered", st, id, id-buffer, buffer)
	}
}

func TestSpanSamplerDeterministicAndExact(t *testing.T) {
	a := NewRecorder(Config{SampleEvery: 4, Seed: 99, Buffer: 1024})
	b := NewRecorder(Config{SampleEvery: 4, Seed: 99, Buffer: 1024})
	kept := 0
	for i := uint64(1); i <= 400; i++ {
		if a.Sampled(i) != b.Sampled(i) {
			t.Fatalf("sampling decision for trace %d differs between identical recorders", i)
		}
		if a.Sampled(i) {
			kept++
		}
		a.Record(Span{TraceID: i, SpanID: i})
	}
	if kept == 0 || kept == 400 {
		t.Fatalf("sampler kept %d/400 traces; want a strict subset", kept)
	}
	st := a.Stats()
	if int(st.Recorded) != kept {
		t.Fatalf("Recorded = %d, want %d kept", st.Recorded, kept)
	}
	if int(st.Sampled) != 400-kept {
		t.Fatalf("Sampled = %d, want %d", st.Sampled, 400-kept)
	}
	// A different seed must make different decisions somewhere.
	c := NewRecorder(Config{SampleEvery: 4, Seed: 7})
	differs := false
	for i := uint64(1); i <= 400 && !differs; i++ {
		differs = a.Sampled(i) != c.Sampled(i)
	}
	if !differs {
		t.Fatal("seed does not influence sampling")
	}
}

func TestSpanSeededIDStreamReproducible(t *testing.T) {
	a := NewRecorder(Config{Seed: 42})
	b := NewRecorder(Config{Seed: 42})
	for i := 0; i < 64; i++ {
		x, y := a.NewID(), b.NewID()
		if x != y {
			t.Fatalf("id %d: %x vs %x", i, x, y)
		}
		if x == 0 {
			t.Fatal("NewID returned 0")
		}
	}
}

func TestSpanTreeAssemblyAndFilters(t *testing.T) {
	r := NewRecorder(Config{Buffer: 64})
	root := r.NewContext()
	child := Context{TraceID: root.TraceID, SpanID: r.NewID()}
	grand := Context{TraceID: child.TraceID, SpanID: r.NewID()}
	r.Record(Span{TraceID: root.TraceID, SpanID: root.SpanID, Name: "req", Tenant: "alpha",
		Outcome: OutcomeOK, Start: at(0), End: at(100)})
	r.Record(Span{TraceID: child.TraceID, SpanID: child.SpanID, ParentID: root.SpanID,
		Name: "exec", Tenant: "alpha", Outcome: OutcomeError, Start: at(10), End: at(90)})
	r.Record(Span{TraceID: grand.TraceID, SpanID: grand.SpanID, ParentID: child.SpanID,
		Name: "attempt", Tenant: "alpha", Start: at(20), End: at(30)})
	other := r.NewContext()
	r.Record(Span{TraceID: other.TraceID, SpanID: other.SpanID, Name: "fast", Tenant: "beta",
		Outcome: OutcomeShed, Start: at(200), End: at(201)})

	roots := r.Roots(Filter{})
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(roots))
	}
	// Most recent first.
	if roots[0].Span.Name != "fast" || roots[1].Span.Name != "req" {
		t.Fatalf("root order = %q, %q", roots[0].Span.Name, roots[1].Span.Name)
	}
	tree := roots[1]
	if len(tree.Children) != 1 || tree.Children[0].Span.Name != "exec" {
		t.Fatalf("req children = %+v", tree.Children)
	}
	if len(tree.Children[0].Children) != 1 || tree.Children[0].Children[0].Span.Name != "attempt" {
		t.Fatal("grandchild not linked under exec")
	}

	if got := r.Roots(Filter{MinDuration: 50 * time.Millisecond}); len(got) != 1 || got[0].Span.Name != "req" {
		t.Fatalf("min-duration filter = %+v", got)
	}
	if got := r.Roots(Filter{Tenant: "beta"}); len(got) != 1 || got[0].Span.Name != "fast" {
		t.Fatalf("tenant filter = %+v", got)
	}
	if got := r.Roots(Filter{Outcome: OutcomeShed}); len(got) != 1 || got[0].Span.Name != "fast" {
		t.Fatalf("outcome filter = %+v", got)
	}
	if got := r.Roots(Filter{Limit: 1}); len(got) != 1 || got[0].Span.Name != "fast" {
		t.Fatalf("limit filter = %+v", got)
	}
}

func TestSpanOrphanBecomesRoot(t *testing.T) {
	// A child whose parent span was evicted (or lives in another process's
	// recorder) must still render, as its own root.
	r := NewRecorder(Config{Buffer: 8})
	r.Record(Span{TraceID: 5, SpanID: 10, ParentID: 999, Name: "orphan", Start: at(0), End: at(1)})
	roots := r.Roots(Filter{})
	if len(roots) != 1 || roots[0].Span.Name != "orphan" {
		t.Fatalf("roots = %+v", roots)
	}
}

func TestSpanAssembleScopesParentByTrace(t *testing.T) {
	// A cross-process root's ParentID is a span id from the *client's* id
	// stream, which can collide numerically with a local span of some
	// other trace (both streams are seed^counter over small counters).
	// Parent matching must be scoped by trace id, or trace 2's server tree
	// would nest under trace 1's unrelated span.
	r := NewRecorder(Config{Buffer: 8})
	r.Record(Span{TraceID: 1, SpanID: 77, Name: "middlebox.exec", Start: at(0), End: at(1)})
	r.Record(Span{TraceID: 2, SpanID: 50, ParentID: 77, Name: "server.request", Start: at(2), End: at(3)})
	r.Record(Span{TraceID: 2, SpanID: 51, ParentID: 50, Name: "middlebox.exec", Start: at(2), End: at(3)})
	roots := r.Roots(Filter{})
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (one per trace): %+v", len(roots), roots)
	}
	for _, root := range roots {
		switch root.Span.TraceID {
		case 1:
			if len(root.Children) != 0 {
				t.Fatalf("trace 1 stole trace 2's spans: %+v", root.Children)
			}
		case 2:
			if root.Span.Name != "server.request" || len(root.Children) != 1 {
				t.Fatalf("trace 2 tree mis-assembled: %+v", root)
			}
		}
	}
}

func TestSpanAttrsBounded(t *testing.T) {
	var s Span
	for i := 0; i < maxAttrs+3; i++ {
		s.SetAttr("k", "v")
	}
	if got := len(s.Attrs()); got != maxAttrs {
		t.Fatalf("attrs = %d, want %d", got, maxAttrs)
	}
}

func TestSpanTenantRollups(t *testing.T) {
	r := NewRecorder(Config{Buffer: 64})
	r.Record(Span{TraceID: 1, SpanID: 1, Tenant: "alpha", Outcome: OutcomeOK, Start: at(0), End: at(10)})
	r.Record(Span{TraceID: 2, SpanID: 2, Tenant: "alpha", Outcome: OutcomeError, Start: at(0), End: at(30)})
	r.Record(Span{TraceID: 3, SpanID: 3, Tenant: "beta", Outcome: OutcomeTimeout, Start: at(0), End: at(5)})
	got := r.Rollup()
	if len(got) != 2 {
		t.Fatalf("rollups = %+v", got)
	}
	alpha, beta := got[0], got[1]
	if alpha.Tenant != "alpha" || alpha.Spans != 2 || alpha.Errors != 1 ||
		alpha.Max != 30*time.Millisecond || alpha.Total != 40*time.Millisecond {
		t.Fatalf("alpha rollup = %+v", alpha)
	}
	if beta.Tenant != "beta" || beta.Spans != 1 || beta.Errors != 1 {
		t.Fatalf("beta rollup = %+v", beta)
	}
}

func TestSpanSlowHook(t *testing.T) {
	var slow []Span
	r := NewRecorder(Config{SlowThreshold: 10 * time.Millisecond,
		OnSlow: func(s Span) { slow = append(slow, s) }})
	r.Record(Span{TraceID: 1, SpanID: 1, Name: "quick", Start: at(0), End: at(1)})
	r.Record(Span{TraceID: 2, SpanID: 2, Name: "slow", Start: at(0), End: at(50)})
	if len(slow) != 1 || slow[0].Name != "slow" {
		t.Fatalf("slow hook fired for %+v", slow)
	}
}

func TestSpanHandlerJSONAndText(t *testing.T) {
	r := NewRecorder(Config{Buffer: 64})
	root := r.NewContext()
	s := Span{TraceID: root.TraceID, SpanID: root.SpanID, Name: "middlebox.exec",
		Tenant: "alpha", Outcome: OutcomeOK, Start: at(0), End: at(25)}
	s.SetAttr("device", "C9")
	r.Record(s)
	child := Context{TraceID: root.TraceID, SpanID: r.NewID()}
	r.Record(Span{TraceID: child.TraceID, SpanID: child.SpanID, ParentID: root.SpanID,
		Name: "exec.attempt", Tenant: "alpha", Start: at(1), End: at(20)})

	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var page PageJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(page.Roots) != 1 || page.Roots[0].Span.Name != "middlebox.exec" {
		t.Fatalf("page roots = %+v", page.Roots)
	}
	if len(page.Roots[0].Children) != 1 {
		t.Fatalf("children = %+v", page.Roots[0].Children)
	}
	if page.Roots[0].Span.TraceID != FormatID(root.TraceID) {
		t.Fatalf("trace id = %q", page.Roots[0].Span.TraceID)
	}
	if page.Stats.Recorded != 2 {
		t.Fatalf("stats = %+v", page.Stats)
	}
	if len(page.Rollups) != 1 || page.Rollups[0].Tenant != "alpha" {
		t.Fatalf("rollups = %+v", page.Rollups)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?format=text", nil))
	body := rec.Body.String()
	for _, want := range []string{"trace " + FormatID(root.TraceID), "middlebox.exec", "exec.attempt", "device=C9", "2 recorded"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text view missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?tenant=nobody", nil))
	json.Unmarshal(rec.Body.Bytes(), &page)
	if len(page.Roots) != 0 {
		t.Fatalf("tenant filter leaked roots: %+v", page.Roots)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?min=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min status = %d", rec.Code)
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewRecorder(Config{Buffer: 32, SampleEvery: 2, SlowThreshold: time.Nanosecond,
		OnSlow: func(Span) {}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctx := r.NewContext()
				r.Record(Span{TraceID: ctx.TraceID, SpanID: ctx.SpanID,
					Name: "n", Tenant: "t", Start: at(i), End: at(i + 1)})
				if i%100 == 0 {
					r.Roots(Filter{Limit: 5})
					r.Stats()
					r.Rollup()
				}
			}
		}(g)
	}
	wg.Wait()
	st := r.Stats()
	if st.Recorded+st.Sampled != 4000 {
		t.Fatalf("accounting mismatch: %+v", st)
	}
}
