// Package estimator implements the expected-time acquisition techniques the
// paper delegates to prior work (Section 2: "the piggyback and the probing
// techniques are a few of those suitable for this purpose"): turning raw
// client-reported time tolerances into the per-page expected times the
// schedulers consume.
//
// Every client request carries the client's tolerated wait for that page
// (piggybacking), and the server folds the reports in continuously; a
// probing server feeds the answers of the clients it polls through the
// same Report call.
//
// Aggregation keeps a bounded per-page reservoir and estimates a low
// quantile of the reported tolerances — conservative, so the schedule is
// built against the demanding clients rather than the average ones — and
// feeds core.Rearrange to produce the geometric group structure.
package estimator

import (
	"fmt"
	"math"
	"math/rand"

	"tcsa/internal/core"
	"tcsa/internal/stats"
)

// Config tunes an Aggregator.
type Config struct {
	// Quantile of reported tolerances used as the page's expected time;
	// lower is more conservative. The zero value means the minimum reported
	// tolerance — the most conservative choice, and the right default for
	// deadline scheduling: no sampled client's constraint is violated.
	Quantile float64
	// ReservoirSize bounds per-page memory; 0 defaults to 256. Reservoir
	// sampling keeps the retained sample uniform over all reports.
	ReservoirSize int
	// Seed drives reservoir replacement; fixed seed = reproducible
	// estimates.
	Seed int64
}

// Aggregator accumulates tolerance reports per page and estimates each
// page's expected time.
type Aggregator struct {
	cfg       Config
	rng       *rand.Rand
	reservoir [][]float64
	seen      []int // total reports per page (reservoir may hold fewer)
}

// NewAggregator creates an aggregator for an instance with pages pages.
func NewAggregator(pages int, cfg Config) (*Aggregator, error) {
	if pages < 1 {
		return nil, fmt.Errorf("estimator: %d pages", pages)
	}
	if cfg.Quantile < 0 || cfg.Quantile > 1 {
		return nil, fmt.Errorf("estimator: quantile %f outside [0,1]", cfg.Quantile)
	}
	if cfg.ReservoirSize == 0 {
		cfg.ReservoirSize = 256
	}
	if cfg.ReservoirSize < 1 {
		return nil, fmt.Errorf("estimator: reservoir size %d", cfg.ReservoirSize)
	}
	return &Aggregator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		reservoir: make([][]float64, pages),
		seen:      make([]int, pages),
	}, nil
}

// Report folds in one client's tolerated wait (in slots, finite and > 0)
// for page id. A client's report is untrusted input: NaN and infinities
// are refused rather than folded into the quantile.
func (a *Aggregator) Report(id core.PageID, tolerance float64) error {
	if id < 0 || int(id) >= len(a.reservoir) {
		return fmt.Errorf("%w: %d", core.ErrPageRange, id)
	}
	if !(tolerance > 0) || math.IsInf(tolerance, 1) {
		return fmt.Errorf("estimator: tolerance %v is not a positive finite number", tolerance)
	}
	a.seen[id]++
	r := a.reservoir[id]
	if len(r) < a.cfg.ReservoirSize {
		a.reservoir[id] = append(r, tolerance)
		return nil
	}
	// Vitter's algorithm R: replace a random element with probability
	// size/seen.
	if j := a.rng.Intn(a.seen[id]); j < len(r) {
		r[j] = tolerance
	}
	return nil
}

// Estimate returns the configured low quantile of page id's reported
// tolerances; ok is false when the page has no reports.
func (a *Aggregator) Estimate(id core.PageID) (est float64, ok bool) {
	if id < 0 || int(id) >= len(a.reservoir) || len(a.reservoir[id]) == 0 {
		return 0, false
	}
	return stats.Percentile(a.reservoir[id], a.cfg.Quantile), true
}

// ExpectedTimes materialises integer per-page expected times (slots, >= 1),
// flooring each estimate so the constraint is conservative; an estimate
// beyond the int range saturates at math.MaxInt rather than wrapping into
// the strictest deadline. Pages without reports get fallback.
func (a *Aggregator) ExpectedTimes(fallback int) ([]int, error) {
	if fallback < 1 {
		return nil, fmt.Errorf("estimator: fallback %d < 1", fallback)
	}
	times := make([]int, len(a.reservoir))
	for i := range times {
		est, ok := a.Estimate(core.PageID(i))
		if !ok {
			times[i] = fallback
			continue
		}
		switch {
		case est >= math.MaxInt: // float64(math.MaxInt) is 2^63, the first value int() cannot hold
			times[i] = math.MaxInt
		case est >= 1:
			times[i] = int(est)
		default:
			times[i] = 1
		}
	}
	return times, nil
}

// Groups runs the full acquisition pipeline: estimates -> integer expected
// times -> core.Rearrange with ratio c.
func (a *Aggregator) Groups(c, fallback int) (*core.Rearrangement, error) {
	times, err := a.ExpectedTimes(fallback)
	if err != nil {
		return nil, err
	}
	return core.Rearrange(times, c)
}
