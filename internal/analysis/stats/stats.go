// Package stats implements the descriptive statistics used by the
// evaluation harness: the mean, quartiles with the box-plot geometry of
// Fig. 4 (IQR, 1.5·IQR whiskers, outliers), and the Pearson correlation
// coefficient used for the Fig. 7(b) solid-invariance claim.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of a sorted, non-empty
// sample using linear interpolation between order statistics (type-7, the
// numpy/pandas default).
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Box holds the box-plot statistics of Fig. 4: quartiles, the IQR, whiskers
// at Q1−1.5·IQR and Q3+1.5·IQR clamped to observed data, and the outliers
// beyond them.
type Box struct {
	Min, Max    float64
	Q1, Med, Q3 float64
	IQR         float64
	LoWhisker   float64
	HiWhisker   float64
	Outliers    []float64
	Mean        float64
	N           int
}

// BoxStats computes Box for the sample. It returns a zero Box for empty
// input (N == 0 distinguishes it).
func BoxStats(xs []float64) Box {
	if len(xs) == 0 {
		return Box{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	b := Box{
		Min: sorted[0], Max: sorted[len(sorted)-1],
		Q1:   quantileSorted(sorted, 0.25),
		Med:  quantileSorted(sorted, 0.50),
		Q3:   quantileSorted(sorted, 0.75),
		Mean: Mean(sorted),
		N:    len(sorted),
	}
	b.IQR = b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*b.IQR
	hiFence := b.Q3 + 1.5*b.IQR

	// Whiskers extend to the most extreme data points inside the fences.
	b.LoWhisker, b.HiWhisker = b.Q1, b.Q3
	for _, v := range sorted {
		if v >= loFence {
			b.LoWhisker = v
			break
		}
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		if sorted[i] <= hiFence {
			b.HiWhisker = sorted[i]
			break
		}
	}
	for _, v := range sorted {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series, or NaN when lengths differ, are empty, or a series is constant.
func Pearson(a, b []float64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return math.NaN()
	}
	ma, mb := Mean(a), Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(da*db)
}

// MaxAbs returns the largest absolute value in the series (0 for empty).
func MaxAbs(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > best {
			best = a
		}
	}
	return best
}

// Resample linearly resamples xs to length n (n >= 2), used to compare
// series of different durations (e.g. velocity-stretched current traces).
// It returns nil when xs is empty or n < 2.
func Resample(xs []float64, n int) []float64 {
	if len(xs) == 0 || n < 2 {
		return nil
	}
	if len(xs) == 1 {
		out := make([]float64, n)
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		pos := float64(i) * float64(len(xs)-1) / float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = xs[lo]
			continue
		}
		frac := pos - float64(lo)
		out[i] = xs[lo]*(1-frac) + xs[hi]*frac
	}
	return out
}
