package stats

import (
	"fmt"
	"math"
)

// Sketch is a mergeable, bounded-memory summary of a sample stream: exact
// Welford moments (an Online) plus a log-bucketed quantile histogram. It
// answers the same questions as Summarize — mean, spread, extremes and tail
// quantiles — without retaining the samples, so a million-request
// measurement costs the same memory as a thousand-request one.
//
// Bucket layout: observations at or below Lo land in a dedicated zero
// bucket (quantiles report them as 0 — delay streams are mostly exact
// zeros); observations above Lo land in geometric buckets
// (Lo*γ^i, Lo*γ^(i+1)], γ = (1+α)/(1-α), so a quantile estimate is within
// one bucket — a factor of γ — of the exact order statistic. Observations
// above Hi clamp into the last bucket.
//
// Merging is exact for the bucket counts (integer adds, so any merge order
// and grouping yields identical quantiles) and order-insensitive up to
// floating-point rounding for the moments (Online.Merge).
//
// A caller that already folds the observations' moments into an Online of
// its own feeds the sketch with AddBin, which counts the bucket only, and
// reads it with SummaryOf: the quantiles then take their count and their
// [Min, Max] clamp from that Online, which are the same whatever order the
// observations were folded in.
type Sketch struct {
	moments Online
	zero    int64   // observations <= lo
	bins    []int64 // bins[i] counts observations in (lo*gamma^i, lo*gamma^(i+1)]
	lo      float64
	gamma   float64
	logLo   float64
	invLogG float64 // 1 / ln(gamma)
}

// NewSketch allocates a sketch covering (lo, hi] with relative accuracy
// alpha in (0, 1): the bucket count is ceil(log_γ(hi/lo))+1, fixed at
// construction. For slot waits, lo is the resolution below which values
// collapse to zero and hi is the cycle length.
func NewSketch(lo, hi, alpha float64) (*Sketch, error) {
	if !(lo > 0) || !(hi > lo) || math.IsInf(hi, 1) {
		return nil, fmt.Errorf("stats: sketch range (%g, %g]", lo, hi)
	}
	if !(alpha > 0) || !(alpha < 1) {
		return nil, fmt.Errorf("stats: sketch accuracy %g outside (0, 1)", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	logG := math.Log(gamma)
	nbins := int(math.Ceil(math.Log(hi/lo)/logG)) + 1
	return &Sketch{
		bins:    make([]int64, nbins),
		lo:      lo,
		gamma:   gamma,
		logLo:   math.Log(lo),
		invLogG: 1 / logG,
	}, nil
}

// Add folds one observation into the sketch.
func (s *Sketch) Add(x float64) {
	s.moments.Add(x)
	s.AddBin(x)
}

// AddBin counts one observation into its bucket without folding it into
// the sketch's moments; read such a sketch with SummaryOf.
func (s *Sketch) AddBin(x float64) {
	if x <= s.lo {
		s.zero++
		return
	}
	i := int((math.Log(x) - s.logLo) * s.invLogG)
	if i < 0 {
		i = 0
	} else if i >= len(s.bins) {
		i = len(s.bins) - 1
	}
	s.bins[i]++
}

// N returns the count of observations folded by Add (AddBin counts none).
func (s *Sketch) N() int64 { return s.moments.N() }

// Merge folds other into s. Both sketches must share a bucket layout
// (same lo, gamma and bucket count). Bucket counts merge exactly; moments
// merge via Online.Merge, which is order-insensitive up to rounding.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return nil
	}
	// Bit equality, not tolerance: layouts either came from the same
	// NewSketch parameters or they index different buckets.
	if len(s.bins) != len(other.bins) ||
		math.Float64bits(s.lo) != math.Float64bits(other.lo) ||
		math.Float64bits(s.gamma) != math.Float64bits(other.gamma) {
		return fmt.Errorf("stats: merging incompatible sketches (%d/%g/%g vs %d/%g/%g)",
			len(s.bins), s.lo, s.gamma, len(other.bins), other.lo, other.gamma)
	}
	s.moments.Merge(other.moments)
	s.zero += other.zero
	for i, c := range other.bins {
		s.bins[i] += c
	}
	return nil
}

// Quantile estimates the p-quantile (p in [0, 1]) under the closest-rank
// convention of Percentile: it locates the order statistic nearest rank
// p*(n-1) and reports its bucket's geometric midpoint, clamped into the
// observed [Min, Max]. The estimate is within a factor of gamma of the
// exact order statistic; observations at or below lo report as 0.
func (s *Sketch) Quantile(p float64) float64 {
	return s.quantile(p, &s.moments)
}

// quantile is Quantile with the count and the [Min, Max] clamp read from o.
func (s *Sketch) quantile(p float64, o *Online) float64 {
	n := o.N()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := int64(math.Round(p * float64(n-1)))
	cum := s.zero
	if rank < cum {
		return 0
	}
	for i, c := range s.bins {
		cum += c
		if rank < cum {
			v := s.lo * math.Pow(s.gamma, float64(i)+0.5)
			if v < o.Min() {
				v = o.Min()
			}
			if v > o.Max() {
				v = o.Max()
			}
			return v
		}
	}
	return o.Max()
}

// Summary emits the five-number-plus profile without retaining samples:
// the moment fields (N, Mean, StdDev, Min, Max) are exact, the quantiles
// are bucket estimates per Quantile.
func (s *Sketch) Summary() Summary {
	return s.SummaryOf(s.moments)
}

// SummaryOf is Summary with the moment fields, and the quantiles' count
// and [Min, Max] clamp, taken from o: for callers that fold the same
// observations' moments in an order of their own and feed the sketch with
// AddBin.
func (s *Sketch) SummaryOf(o Online) Summary {
	return Summary{
		N:      int(o.N()),
		Mean:   o.Mean(),
		StdDev: o.StdDev(),
		Min:    o.Min(),
		Max:    o.Max(),
		P50:    s.quantile(0.50, &o),
		P95:    s.quantile(0.95, &o),
		P99:    s.quantile(0.99, &o),
	}
}

// String renders the summary on one line.
func (s *Sketch) String() string {
	return s.Summary().String()
}
