// Package stats provides the small, dependency-free statistics toolkit the
// simulators and experiment harness use: streaming moments (Welford),
// percentiles, mergeable quantile sketches and confidence intervals.
// Everything is deterministic and allocation-conscious.
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean and variance in one pass using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// AddAll folds a batch of observations.
func (o *Online) AddAll(xs []float64) {
	for _, x := range xs {
		o.Add(x)
	}
}

// Merge folds another accumulator into this one (parallel reduction).
func (o *Online) Merge(other Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = other
		return
	}
	n := o.n + other.n
	d := other.mean - o.mean
	o.m2 += other.m2 + d*d*float64(o.n)*float64(other.n)/float64(n)
	o.mean += d * float64(other.n) / float64(n)
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
	o.n = n
}

// N returns the observation count.
func (o *Online) N() int64 { return o.n }

// Mean returns the running mean (0 when empty).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation (0 when empty).
func (o *Online) Max() float64 { return o.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (0 for fewer than two observations).
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return 1.96 * o.StdDev() / math.Sqrt(float64(o.n))
}

// String renders "mean ± ci (n=..., min=..., max=...)".
func (o *Online) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d, min=%.4f, max=%.4f)",
		o.Mean(), o.CI95(), o.n, o.min, o.max)
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-quantile (p in [0,1]) of xs by linear
// interpolation between closest ranks; it copies and sorts internally.
// Callers reading several quantiles of one sample should sort once and use
// PercentileSorted (Summarize does).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already ascending-sorted sample.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary is a fixed five-number-plus profile of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs. The sample is copied and sorted once;
// all three quantiles read from the same sorted copy.
func Summarize(xs []float64) Summary {
	var o Online
	o.AddAll(xs)
	s := Summary{
		N:      len(xs),
		Mean:   o.Mean(),
		StdDev: o.StdDev(),
		Min:    o.Min(),
		Max:    o.Max(),
	}
	if len(xs) > 0 {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		s.P50 = PercentileSorted(sorted, 0.50)
		s.P95 = PercentileSorted(sorted, 0.95)
		s.P99 = PercentileSorted(sorted, 0.99)
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p95=%.4f p99=%.4f max=%.4f",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// JainIndex computes Jain's fairness index of a non-negative sample:
// (sum x)^2 / (n * sum x^2), which is 1 when all values are equal and
// 1/n when one value dominates. An all-zero sample is perfectly fair (1).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	//lint:ignore floateq exact zero guard: a sum of squares is 0 only when every sample is 0
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
