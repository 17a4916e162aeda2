package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5) {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); !almost(got, c.want) {
			t.Errorf("quantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBoxStats(t *testing.T) {
	// Latencies with one clear outlier, like a Fig. 4 REMOTE box.
	xs := []float64{4, 5, 5, 6, 6, 6, 7, 7, 8, 35}
	b := BoxStats(xs)
	if b.N != 10 {
		t.Fatalf("N = %d", b.N)
	}
	if b.Med != 6 {
		t.Errorf("median = %v", b.Med)
	}
	if b.Q1 > b.Med || b.Med > b.Q3 {
		t.Error("quartile ordering broken")
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 35 {
		t.Errorf("outliers = %v, want [35]", b.Outliers)
	}
	if b.HiWhisker >= 35 {
		t.Errorf("upper whisker %v should exclude the outlier", b.HiWhisker)
	}
	if b.LoWhisker != 4 {
		t.Errorf("lower whisker = %v, want 4", b.LoWhisker)
	}
	empty := BoxStats(nil)
	if empty.N != 0 {
		t.Error("empty box should have N=0")
	}
}

func TestBoxStatsNoOutliers(t *testing.T) {
	b := BoxStats([]float64{1, 2, 3, 4, 5})
	if len(b.Outliers) != 0 {
		t.Errorf("outliers = %v", b.Outliers)
	}
	if b.LoWhisker != 1 || b.HiWhisker != 5 {
		t.Errorf("whiskers = %v..%v, want 1..5", b.LoWhisker, b.HiWhisker)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if got := Pearson(a, b); !almost(got, 1) {
		t.Errorf("perfect correlation = %v", got)
	}
	c := []float64{10, 8, 6, 4, 2}
	if got := Pearson(a, c); !almost(got, -1) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if !math.IsNaN(Pearson(a, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant series should give NaN")
	}
	if !math.IsNaN(Pearson(a, []float64{1, 2})) {
		t.Error("length mismatch should give NaN")
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs([]float64{-3, 2, 1}); got != 3 {
		t.Errorf("MaxAbs = %v", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Errorf("MaxAbs(nil) = %v", got)
	}
}

func TestResample(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	up := Resample(xs, 7)
	if len(up) != 7 {
		t.Fatalf("len = %d", len(up))
	}
	if up[0] != 0 || up[6] != 3 {
		t.Errorf("endpoints = %v, %v", up[0], up[6])
	}
	if !almost(up[3], 1.5) {
		t.Errorf("midpoint = %v, want 1.5", up[3])
	}
	if Resample(nil, 5) != nil {
		t.Error("empty input")
	}
	if Resample(xs, 1) != nil {
		t.Error("n<2")
	}
	constant := Resample([]float64{7}, 4)
	for _, v := range constant {
		if v != 7 {
			t.Errorf("single-point resample = %v", constant)
		}
	}
}

// Property: quartiles are ordered, whiskers are ordered and within the data
// range, and no outlier lies inside the whiskers. (Whiskers are actual data
// points clamped to the 1.5·IQR fences, so with a small sample whose extreme
// values are outliers a whisker can legitimately sit inside the
// *interpolated* quartile — quartile-bracketing is not an invariant.)
func TestBoxOrderingProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		b := BoxStats(xs)
		if !(b.Q1 <= b.Med && b.Med <= b.Q3) {
			return false
		}
		if !(b.Min <= b.LoWhisker && b.LoWhisker <= b.HiWhisker && b.HiWhisker <= b.Max) {
			return false
		}
		for _, o := range b.Outliers {
			if o >= b.LoWhisker && o <= b.HiWhisker {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is symmetric and within [-1, 1].
func TestPearsonBoundedSymmetricProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 4 {
			return true
		}
		half := len(raw) / 2
		a := make([]float64, half)
		b := make([]float64, half)
		for i := 0; i < half; i++ {
			a[i] = float64(raw[i])
			b[i] = float64(raw[half+i])
		}
		r1, r2 := Pearson(a, b), Pearson(b, a)
		if math.IsNaN(r1) {
			return math.IsNaN(r2)
		}
		return almost(r1, r2) && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
