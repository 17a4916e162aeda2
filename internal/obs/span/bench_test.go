package span

import (
	"testing"
	"time"
)

// BenchmarkRecord prices the recorder's hot path in isolation: Adopt is
// the per-request trace-context cost (one counter bump plus two splitmix
// rounds), Record is the per-span cost (sampler check, one ring copy
// under the recorder's mutex), and Exec composes the two the way a
// traced middlebox exec does. These are the numbers the ≤5% tracing
// budget in BenchmarkExecObserved decomposes into.
func BenchmarkRecord(b *testing.B) {
	start := time.Unix(0, 0)
	end := start.Add(time.Millisecond)

	b.Run("Adopt", func(b *testing.B) {
		r := NewRecorder(Config{Seed: 1})
		for i := 0; i < b.N; i++ {
			ctx, _ := r.Adopt(Context{})
			if !ctx.Valid() {
				b.Fatal("invalid context")
			}
		}
	})
	b.Run("Record", func(b *testing.B) {
		r := NewRecorder(Config{Seed: 1})
		s := Span{TraceID: 7, SpanID: 8, Name: "middlebox.exec", Start: start, End: end}
		s.SetAttr("device", "C9")
		s.SetAttr("command", "MVNG")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Record(s)
		}
	})
	b.Run("Exec", func(b *testing.B) {
		r := NewRecorder(Config{Seed: 1})
		for i := 0; i < b.N; i++ {
			ctx, parent := r.Adopt(Context{})
			s := Span{TraceID: ctx.TraceID, SpanID: ctx.SpanID, ParentID: parent,
				Name: "middlebox.exec", Start: start, End: end}
			s.SetAttr("device", "C9")
			s.SetAttr("command", "MVNG")
			r.Record(s)
		}
	})
	b.Run("Unsampled", func(b *testing.B) {
		r := NewRecorder(Config{Seed: 1, SampleEvery: 1 << 62})
		s := Span{TraceID: 7, SpanID: 8, Name: "middlebox.exec", Start: start, End: end}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Record(s)
		}
	})
}
