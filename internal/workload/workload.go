// Package workload generates the synthetic broadcast workloads of
// "Time-Constrained Service on Air" (ICDCS 2005), Section 5: group-size
// distributions over expected-time groups (Figure 3), the default parameter
// set (Figure 4), and client request streams.
//
// The paper specifies four qualitative group-size shapes — normal,
// S-skewed, L-skewed and uniform — over h groups totalling n pages, but not
// their exact histogram values. This package uses deterministic parametric
// shapes with exact-sum rounding: a discrete bell for normal, a geometric
// decay for L-skewed (mass on small expected times), its mirror for
// S-skewed (mass on large expected times) and an even split for uniform.
// All generation is seedable and bit-for-bit reproducible.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tcsa/internal/core"
)

// Distribution names a group-size shape from the paper's Figure 3.
type Distribution int

const (
	// Uniform spreads pages evenly across groups.
	Uniform Distribution = iota
	// Normal concentrates pages on middle expected-time groups (bell).
	Normal
	// LSkewed concentrates pages on small expected-time groups (the "L"
	// shape: tall on the left, decaying right).
	LSkewed
	// SSkewed concentrates pages on large expected-time groups (mirror of
	// LSkewed).
	SSkewed
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	case LSkewed:
		return "L-skewed"
	case SSkewed:
		return "S-skewed"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ParseDistribution maps common spellings ("uniform", "normal", "lskew",
// "l-skewed", "sskew", "s-skewed") to a Distribution.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "normal":
		return Normal, nil
	case "lskew", "l-skew", "lskewed", "l-skewed":
		return LSkewed, nil
	case "sskew", "s-skew", "sskewed", "s-skewed":
		return SSkewed, nil
	default:
		return 0, fmt.Errorf("workload: unknown distribution %q", s)
	}
}

// ParseInstance builds the group set a command line describes: counts, a
// comma-separated list of per-group page counts over geometric expected
// times t1, t1*ratio, ...; or else dist, a Distribution name spreading
// pages over groups. counts wins when both are set.
func ParseInstance(counts, dist string, pages, groups, t1, ratio int) (*core.GroupSet, error) {
	switch {
	case counts != "":
		cs, err := ParseInts(counts)
		if err != nil {
			return nil, fmt.Errorf("counts: %w", err)
		}
		return core.Geometric(t1, ratio, cs)
	case dist != "":
		d, err := ParseDistribution(dist)
		if err != nil {
			return nil, err
		}
		return GroupSet(d, groups, pages, t1, ratio)
	default:
		return nil, errors.New("one of -counts or -dist is required")
	}
}

// ParseInts parses a comma-separated list of integers, as command lines
// give page counts, expected times and channel budgets.
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// Distributions lists all four shapes in the paper's Figure 5 order.
func Distributions() []Distribution {
	return []Distribution{Normal, LSkewed, SSkewed, Uniform}
}

// skewRatio is the per-group geometric decay of the skewed shapes; 0.6
// yields the pronounced-but-not-degenerate skew of the paper's Figure 3
// sketches.
const skewRatio = 0.6

// GroupCounts returns the per-group page counts for distribution d over h
// groups and n total pages. Counts are >= 1 per group, sum exactly to n and
// are deterministic. It fails when n < h (cannot give every group a page).
func GroupCounts(d Distribution, h, n int) ([]int, error) {
	if h < 1 {
		return nil, fmt.Errorf("workload: %d groups", h)
	}
	if n < h {
		return nil, fmt.Errorf("workload: %d pages cannot cover %d groups", n, h)
	}
	weights := make([]float64, h)
	switch d {
	case Uniform:
		for i := range weights {
			weights[i] = 1
		}
	case Normal:
		mu := float64(h+1) / 2
		sigma := float64(h) / 4
		for i := range weights {
			x := float64(i+1) - mu
			weights[i] = math.Exp(-x * x / (2 * sigma * sigma))
		}
	case LSkewed:
		w := 1.0
		for i := range weights {
			weights[i] = w
			w *= skewRatio
		}
	case SSkewed:
		w := 1.0
		for i := h - 1; i >= 0; i-- {
			weights[i] = w
			w *= skewRatio
		}
	default:
		return nil, fmt.Errorf("workload: unknown distribution %v", d)
	}
	return apportion(weights, n)
}

// The paper's Figure 4 instance: n pages in h groups with expected times
// t_i = t_1 * c^(i-1) = 4, 8, ..., 512.
const (
	PaperPages    = 1000 // n
	PaperGroups   = 8    // h
	PaperBaseTime = 4    // t_1
	PaperRatio    = 2    // c
)

// GroupSet builds the complete instance: counts from GroupCounts attached
// to geometric expected times t_i = t1 * c^(i-1).
func GroupSet(d Distribution, h, n, t1, c int) (*core.GroupSet, error) {
	counts, err := GroupCounts(d, h, n)
	if err != nil {
		return nil, err
	}
	return core.Geometric(t1, c, counts)
}

// apportion scales non-negative weights to integer counts summing exactly
// to n with every count >= 1, using largest-remainder rounding with
// deterministic index tie-break.
func apportion(weights []float64, n int) ([]int, error) {
	h := len(weights)
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("workload: invalid weight %f", w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("workload: all-zero weights")
	}
	counts := make([]int, h)
	remainders := make([]float64, h)
	assigned := 0
	// Reserve one page per group, apportion the rest proportionally.
	spare := n - h
	for i, w := range weights {
		exact := w / total * float64(spare)
		counts[i] = 1 + int(exact)
		remainders[i] = exact - math.Floor(exact)
		assigned += counts[i]
	}
	// Distribute leftover pages by largest remainder, index-ascending ties.
	order := make([]int, h)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return remainders[order[a]] > remainders[order[b]] })
	for k := 0; assigned < n; k++ {
		counts[order[k%h]]++
		assigned++
	}
	return counts, nil
}
