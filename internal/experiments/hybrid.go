package experiments

import (
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/hybrid"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// HybridPoint is one cell of the arrival-intensity x split x policy matrix:
// a Poisson request stream at Rate arrivals/slot driven through the coupled
// push/online system on a scarce PAMAD program.
type HybridPoint struct {
	Rate   float64
	Split  online.Split
	Policy online.Policy

	// PullShare is the fraction of clients the broadcast lost to the
	// online tier (the paper's congestion driver).
	PullShare float64
	// OnlineAvgFlow / OnlineMaxDF summarise the online tier's service of
	// the defectors: mean flow time and worst delay factor.
	OnlineAvgFlow float64
	OnlineMaxDF   float64
	// StolenSlots counts push cells the online tier borrowed (steal mode).
	StolenSlots int
	// EndToEndMean / EndToEndMax cover every request across both tiers.
	EndToEndMean float64
	EndToEndMax  float64
}

// HybridMatrix sweeps Poisson arrival intensity against pull/push splits
// and online policies on one scarce program (1/5 of the minimum channels,
// the paper's knee-rule operating point). Every cell reuses the same
// request stream per rate, so differences across a row are attributable to
// the split and policy alone.
func HybridMatrix(p Params, dist workload.Distribution, rates []float64,
	splits []online.Split, policies []online.Policy) ([]HybridPoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(rates) == 0 || len(splits) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("experiments: empty hybrid matrix axis (%d rates, %d splits, %d policies)",
			len(rates), len(splits), len(policies))
	}
	gs, err := p.Instance(dist)
	if err != nil {
		return nil, err
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		return nil, err
	}
	out := make([]HybridPoint, 0, len(rates)*len(splits)*len(policies))
	for ri, rate := range rates {
		reqs, err := workload.GeneratePoissonRequests(gs, workload.PoissonConfig{
			RequestConfig: workload.RequestConfig{Count: p.Requests, Seed: p.Seed + int64(ri)},
			Rate:          rate,
		})
		if err != nil {
			return nil, err
		}
		for _, split := range splits {
			for _, policy := range policies {
				rep, err := hybrid.Run(prog, reqs, hybrid.Config{
					Air:    sim.Config{AbandonAfter: 1.0},
					Online: &online.Config{Policy: policy, Split: split},
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: hybrid rate %g %v/%v: %w",
						rate, split, policy, err)
				}
				pt := HybridPoint{
					Rate:         rate,
					Split:        split,
					Policy:       policy,
					PullShare:    rep.PullShare,
					EndToEndMean: rep.EndToEnd.Mean,
					EndToEndMax:  rep.EndToEnd.Max,
				}
				if rep.Online != nil {
					pt.OnlineAvgFlow = rep.Online.AvgFlow
					pt.OnlineMaxDF = rep.Online.MaxDelayFactor
					pt.StolenSlots = rep.Online.StolenSlots
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// HybridSeries flattens the matrix into a checksum-friendly float series in
// row order: the fingerprint the airbench hybrid gate freezes.
func HybridSeries(pts []HybridPoint) []float64 {
	s := make([]float64, 0, 5*len(pts))
	for _, pt := range pts {
		s = append(s, pt.PullShare, pt.OnlineAvgFlow, pt.OnlineMaxDF,
			float64(pt.StolenSlots), pt.EndToEndMean)
	}
	return s
}
