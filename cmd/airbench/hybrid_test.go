package main

import (
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/experiments"
	"tcsa/internal/hybrid"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/perf"
	"tcsa/internal/workload"
)

// hybridPoint is one cell of the arrival-intensity x split x policy matrix:
// a Poisson request stream at rate arrivals/slot driven through the coupled
// push/online system on a scarce PAMAD program.
type hybridPoint struct {
	rate   float64
	split  online.Split
	policy online.Policy

	// pullShare is the fraction of clients the broadcast lost to the
	// online tier (the paper's congestion driver).
	pullShare float64
	// onlineAvgFlow / onlineMaxDF summarise the online tier's service of
	// the defectors: mean flow time and worst delay factor.
	onlineAvgFlow float64
	onlineMaxDF   float64
	// stolenSlots counts push cells the online tier borrowed (steal mode).
	stolenSlots int
	// endToEndMean / endToEndMax cover every request across both tiers.
	endToEndMean float64
	endToEndMax  float64
}

// hybridMatrix sweeps Poisson arrival intensity against pull/push splits
// and online policies on one scarce program (1/5 of the minimum channels,
// the paper's knee-rule operating point). Every cell reuses the same
// request stream per rate, so differences across a row are attributable to
// the split and policy alone.
func hybridMatrix(t *testing.T, p experiments.Params, rates []float64,
	splits []online.Split, policies []online.Policy) []hybridPoint {
	t.Helper()
	gs, err := p.Instance(workload.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]hybridPoint, 0, len(rates)*len(splits)*len(policies))
	for ri, rate := range rates {
		reqs, err := workload.GeneratePoissonRequests(gs, workload.PoissonConfig{
			RequestConfig: workload.RequestConfig{Count: p.Requests, Seed: p.Seed + int64(ri)},
			Rate:          rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range splits {
			for _, policy := range policies {
				rep, err := hybrid.Run(prog, reqs, hybrid.Config{
					Air:    chaos.ReplayConfig{AbandonAfter: 1.0},
					Online: &online.Config{Policy: policy, Split: split},
				})
				if err != nil {
					t.Fatalf("hybrid rate %g %v/%v: %v", rate, split, policy, err)
				}
				pt := hybridPoint{
					rate:         rate,
					split:        split,
					policy:       policy,
					pullShare:    rep.PullShare,
					endToEndMean: rep.EndToEnd.Mean,
					endToEndMax:  rep.EndToEnd.Max,
				}
				if rep.Online != nil {
					pt.onlineAvgFlow = rep.Online.AvgFlow
					pt.onlineMaxDF = rep.Online.MaxDelayFactor
					pt.stolenSlots = rep.Online.StolenSlots
				}
				out = append(out, pt)
			}
		}
	}
	return out
}

// hybridSeries flattens the matrix into the float series its checksum
// fingerprints, in row order.
func hybridSeries(pts []hybridPoint) []float64 {
	s := make([]float64, 0, 5*len(pts))
	for _, pt := range pts {
		s = append(s, pt.pullShare, pt.onlineAvgFlow, pt.onlineMaxDF,
			float64(pt.stolenSlots), pt.endToEndMean)
	}
	return s
}

// hybridMatrixSpec is the committed shape of the HybridMatrix row.
func hybridMatrixSpec() (experiments.Params, []float64, []online.Split) {
	p := experiments.DefaultParams()
	p.Pages, p.Groups, p.Requests = 80, 4, 400
	rates := []float64{2, 8}
	splits := []online.Split{
		{Mode: online.SplitReserved, OnlineChannels: 1},
		{Mode: online.SplitPureOnline},
	}
	return p, rates, splits
}

// TestHybridCommittedChecksums reproduces the two hybrid golden rows
// outside the timing harness: the online tier measured by a single worker
// and the full intensity x split x policy matrix must each fingerprint to
// the checksum the golden table pins.
func TestHybridCommittedChecksums(t *testing.T) {
	prog, stream, ocfg := hybridBenchInstance(t)
	ocfg.Workers = 1
	ref, err := online.Run(prog, stream, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := perf.SeriesChecksum(onlineSeries(ref)), pinnedRow(t, "OnlineLWFReserved").sum; got != want {
		t.Errorf("online series drifted from the golden table: %s != %s", got, want)
	}

	p, rates, splits := hybridMatrixSpec()
	pts := hybridMatrix(t, p, rates, splits, online.Policies())
	if got, want := perf.SeriesChecksum(hybridSeries(pts)), pinnedRow(t, "HybridMatrix").sum; got != want {
		t.Errorf("matrix series drifted from the golden table: %s != %s", got, want)
	}
}

func TestHybridMatrixShape(t *testing.T) {
	p, rates, splits := hybridMatrixSpec()
	policies := []online.Policy{online.LWF, online.FCFS}
	pts := hybridMatrix(t, p, rates, splits, policies)
	if len(pts) != len(rates)*len(splits)*len(policies) {
		t.Fatalf("matrix has %d cells, want %d", len(pts), len(rates)*len(splits)*len(policies))
	}
	for _, pt := range pts {
		if pt.pullShare < 0 || pt.pullShare > 1 {
			t.Fatalf("pull share %g outside [0,1]: %+v", pt.pullShare, pt)
		}
		if pt.endToEndMean <= 0 || pt.endToEndMax < pt.endToEndMean {
			t.Fatalf("end-to-end stats inconsistent: %+v", pt)
		}
		if pt.pullShare > 0 && pt.onlineMaxDF < 1 {
			t.Fatalf("delay factor below 1 with defectors present: %+v", pt)
		}
	}
	// Determinism: the same matrix twice is bit-identical.
	a, b := hybridSeries(pts), hybridSeries(hybridMatrix(t, p, rates, splits, policies))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series value %d drifted: %g vs %g", i, a[i], b[i])
		}
	}
}
