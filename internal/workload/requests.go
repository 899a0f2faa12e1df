package workload

import (
	"fmt"
	"math"

	"tcsa/internal/core"
)

// Request is one client access: the client tunes in at Arrival (a
// continuous instant within one broadcast cycle, in slots) and waits for
// page Page.
type Request struct {
	Page    core.PageID
	Arrival float64
}

// PageChoice selects how requests pick their page.
type PageChoice int

const (
	// UniformPages matches the paper's model: every page equally likely
	// (prob_access = 1/n).
	UniformPages PageChoice = iota
	// ZipfPages skews access toward low page IDs (i.e. tight expected
	// times, since IDs are assigned in ascending t order) with parameter
	// Theta; an extension for studying non-uniform popularity.
	ZipfPages
)

// RequestConfig parameterises request generation.
type RequestConfig struct {
	// Count is the number of requests (the paper's default is 3000).
	Count int
	// Choice picks the page-selection model; default UniformPages.
	Choice PageChoice
	// Theta is the Zipf skew in (0, 1]; used only by ZipfPages. 0 defaults
	// to 0.8.
	Theta float64
	// Seed makes the stream reproducible.
	Seed int64
}

// GenerateRequests draws cfg.Count requests against an instance with n
// pages and the given cycle length. Arrivals are uniform over the cycle,
// matching the "client may start to listen at any time" model. It is
// NewStream's requests, materialised.
func GenerateRequests(gs *core.GroupSet, cycleLen int, cfg RequestConfig) ([]Request, error) {
	s, err := NewStream(gs, cycleLen, cfg)
	if err != nil {
		return nil, err
	}
	return materialize(s), nil
}

// materialize returns every request of s, shard by shard.
func materialize(s Stream) []Request {
	reqs := make([]Request, s.Count())
	cur := s.NewCursor()
	i := 0
	for k := 0; k < s.Shards(); k++ {
		cur.Seek(k)
		for i < len(reqs) && cur.Next(&reqs[i]) {
			i++
		}
	}
	return reqs
}

// zipfCDF precomputes the cumulative distribution of a Zipf(theta) law over
// ranks 1..n (probability of rank k proportional to 1/k^theta).
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), theta)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// zipfTable draws Zipf ranks from a CDF through a guide table (the
// cutpoint method): guide[j] is the first rank whose cumulative
// probability reaches j/m, so a draw u starts at guide[int(u*m)], at or
// just before its answer, and scans at most a few entries instead of
// binary-searching all n.
type zipfTable struct {
	cdf   []float64
	guide []int32 // len m+1: int(u*m) may round up to m for u just below 1
	m     float64
}

// newZipfTable builds the guide for cdf, which must be non-decreasing and
// non-empty, with m = len(cdf) cutpoints, in one sweep.
func newZipfTable(cdf []float64) *zipfTable {
	m := len(cdf)
	z := &zipfTable{cdf: cdf, guide: make([]int32, m+1), m: float64(m)}
	i := 0
	for j := range z.guide {
		t := float64(j) / z.m
		for i < len(cdf)-1 && cdf[i] < t {
			i++
		}
		z.guide[j] = int32(i)
	}
	return z
}

// rank returns the first index whose cumulative probability covers u (the
// last index when none does), for any u that is not NaN. The guide only
// picks where the scans start: the forward scan stops at the first entry
// covering u at or after the start, and the backward scan steps back over
// entries that also cover it, so the result is the same whatever rounding
// u*m takes.
func (z *zipfTable) rank(u float64) int {
	j := int(u * z.m)
	if uint(j) >= uint(len(z.guide)) {
		j = len(z.guide) - 1 // u < 0 or u >= 1: the scans still land exactly
	}
	cdf := z.cdf
	i := int(z.guide[j])
	for i < len(cdf)-1 && cdf[i] < u {
		i++
	}
	for i > 0 && cdf[i-1] >= u {
		i--
	}
	return i
}

// PoissonConfig extends RequestConfig for arrival processes beyond the
// single-cycle uniform default: a Poisson stream whose exponential
// inter-arrival gaps accumulate from time 0, spanning as many broadcast
// cycles as the rate and count imply.
type PoissonConfig struct {
	RequestConfig
	// Rate is the mean number of arrivals per slot; must be > 0.
	Rate float64
}

// GeneratePoissonRequests draws cfg.Count requests with Poisson arrivals
// and the configured page-choice model (UniformPages or ZipfPages, as in
// GenerateRequests). Arrival instants are absolute simulation times (they
// exceed one cycle for long streams); consumers treat the program as
// cyclic. It is NewPoissonStream's requests, materialised.
//
//lint:ignore testonly fixture shared by the airbench, chaos, sim and workload suites
func GeneratePoissonRequests(gs *core.GroupSet, cfg PoissonConfig) ([]Request, error) {
	s, err := NewPoissonStream(gs, cfg)
	if err != nil {
		return nil, err
	}
	return materialize(s), nil
}

// pageTable resolves a stream's page-choice model: nil for UniformPages
// (the rng.Intn draw) or the Zipf table for ZipfPages, whose Theta
// defaults to 0.8 and must lie in (0, 1].
func pageTable(n int, cfg RequestConfig) (*zipfTable, error) {
	switch cfg.Choice {
	case UniformPages:
		return nil, nil
	case ZipfPages:
		theta := cfg.Theta
		if theta == 0 {
			theta = 0.8
		}
		if theta < 0 || theta > 1 {
			return nil, fmt.Errorf("workload: zipf theta %f outside (0,1]", theta)
		}
		return newZipfTable(zipfCDF(n, theta)), nil
	default:
		return nil, fmt.Errorf("workload: unknown page choice %d", cfg.Choice)
	}
}
