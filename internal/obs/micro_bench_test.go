package obs

import (
	"testing"
	"time"
)

func BenchmarkObserveMicro(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkObserveConst(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("x_seconds", nil)
	d := 250 * time.Millisecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(d)
	}
}
