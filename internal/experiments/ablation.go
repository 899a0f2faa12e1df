package experiments

import (
	"context"
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// KneeResult quantifies the paper's third observation for one distribution:
// "when the number of available channels increases to about 1/5 of the
// minimally sufficient channels, the average delay decreases to an amount
// almost ignorable".
type KneeResult struct {
	Dist        workload.Distribution
	MinChannels int
	// Knee is the smallest channel count at which PAMAD's measured AvgD
	// drops below Threshold slots.
	Knee      int
	Threshold float64
	// FifthOfMin is ceil(MinChannels/5), the paper's rule of thumb.
	FifthOfMin int
	// DelayAtFifth is PAMAD's AvgD at FifthOfMin channels.
	DelayAtFifth float64
	// DelayAtOne is PAMAD's AvgD at a single channel, for scale.
	DelayAtOne float64
}

// Knee locates the delay knee of a Figure 5 series. threshold <= 0 defaults
// to 1 slot.
func Knee(s *Fig5Series, threshold float64) (*KneeResult, error) {
	if s == nil || len(s.Points) == 0 {
		return nil, fmt.Errorf("experiments: empty series")
	}
	if threshold <= 0 {
		threshold = 1
	}
	r := &KneeResult{
		Dist:        s.Dist,
		MinChannels: s.MinChannels,
		Threshold:   threshold,
		FifthOfMin:  core.CeilDiv(s.MinChannels, 5),
		Knee:        -1,
		DelayAtOne:  s.Points[0].PAMAD,
	}
	for _, pt := range s.Points {
		if r.Knee < 0 && pt.PAMAD <= threshold {
			r.Knee = pt.Channels
		}
		if pt.Channels <= r.FifthOfMin {
			r.DelayAtFifth = pt.PAMAD
		}
	}
	return r, nil
}

// TiePoint compares the two Algorithm 3 tie-break policies at one channel
// count.
type TiePoint struct {
	Channels      int
	TowardRatio   float64 // measured AvgD, default policy
	SmallestR     float64 // measured AvgD, paper-literal policy
	TowardModel   float64 // analytic D' of the default policy's frequencies
	SmallestModel float64
}

// AblateTieBreak sweeps the channel counts comparing PAMAD's default
// tie-break (toward the deadline ratio) against the paper-literal smallest-
// argmin rule (ablation A1 in DESIGN.md).
func AblateTieBreak(p Params, dist workload.Distribution) ([]TiePoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	gs, err := p.Instance(dist)
	if err != nil {
		return nil, err
	}
	var out []TiePoint
	for n := 1; n <= gs.MinChannels(); n += p.ChannelStride {
		tp := TiePoint{Channels: n}
		for i, tie := range []pamad.TieBreak{pamad.TieTowardRatio, pamad.TieSmallestR} {
			prog, res, err := pamad.BuildOpt(gs, n, pamad.Options{TieBreak: tie})
			if err != nil {
				return nil, err
			}
			measured, _, err := measure(p, prog, n, 3+i)
			if err != nil {
				return nil, err
			}
			if tie == pamad.TieTowardRatio {
				tp.TowardRatio = measured
				tp.TowardModel = res.Delay
			} else {
				tp.SmallestR = measured
				tp.SmallestModel = res.Delay
			}
		}
		out = append(out, tp)
	}
	return out, nil
}

// ModelPoint compares the three delay estimates for PAMAD's program at one
// channel count: the D' heuristic objective, the exact closed form of the
// placed program, and the Monte-Carlo measurement (ablation A3).
type ModelPoint struct {
	Channels  int
	Heuristic float64 // D' (Eq. 2 family) of the chosen frequencies
	Ideal     float64 // Section 4.1 exact model, even spacing assumed
	Exact     float64 // closed form of the actual placed program
	Measured  float64 // Monte-Carlo over p.Requests
}

// ModelCheck sweeps the channel counts collecting the model-vs-measurement
// comparison for PAMAD.
func ModelCheck(p Params, dist workload.Distribution) ([]ModelPoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	gs, err := p.Instance(dist)
	if err != nil {
		return nil, err
	}
	var out []ModelPoint
	for n := 1; n <= gs.MinChannels(); n += p.ChannelStride {
		prog, res, err := pamad.Build(gs, n)
		if err != nil {
			return nil, err
		}
		a := core.Analyze(prog)
		reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{
			Count: p.Requests,
			Seed:  p.Seed*7_000_003 + int64(n),
		})
		if err != nil {
			return nil, err
		}
		m, err := sim.MeasureAnalyzed(a, reqs)
		if err != nil {
			return nil, err
		}
		out = append(out, ModelPoint{
			Channels:  n,
			Heuristic: res.Delay,
			Ideal:     delaymodel.ExactDelay(gs, res.Frequencies, n),
			Exact:     a.AvgDelay(),
			Measured:  m.AvgDelay,
		})
	}
	return out, nil
}

// OptGap summarises the PAMAD-vs-OPT gap over a sweep in exact program-
// delay terms — the space in which the paper's "almost overlaps" claim is
// made (ablation A1's companion number reported in EXPERIMENTS.md).
type OptGap struct {
	Dist         workload.Distribution
	MaxAbsGap    float64 // max over channel counts of PAMAD exact - OPT exact
	MeanAbsGap   float64
	MaxRelGap    float64 // max of gap / max(OPT exact, 1 slot)
	WorstChannel int     // channel count of MaxRelGap
}

// AblateOptGap measures how far PAMAD's greedy schedule sits from OPT's
// exhaustive one across the sweep, comparing the exact closed-form delays
// of the generated programs.
func AblateOptGap(ctx context.Context, p Params, dist workload.Distribution) (*OptGap, error) {
	s, err := Figure5(ctx, p, dist, 0)
	if err != nil {
		return nil, err
	}
	return OptGapFromSeries(s)
}

// OptPruneStat records one channel count of the OPT pruning ablation: the
// exact-evaluation counts of the exhaustive and branch-and-bound searches,
// which return bit-identical results by construction (verified on every
// point).
type OptPruneStat struct {
	Channels   int
	Delay      float64 // analytic D' of the (shared) optimum
	Exhaustive int64   // candidates scored by the full Cartesian scan
	Pruned     int64   // candidates scored by the branch-and-bound search
	Reduction  float64 // Exhaustive / Pruned
}

// AblateOptPruning sweeps the channel counts comparing the pruned OPT
// search against the exhaustive reference scan: identical results (any
// divergence is an error), with the evaluated-node reduction recorded per
// point. Searches run at Parallelism 1 so the counts are deterministic;
// docs/perf.md reports the measured reduction.
func AblateOptPruning(ctx context.Context, p Params, dist workload.Distribution) ([]OptPruneStat, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	gs, err := p.Instance(dist)
	if err != nil {
		return nil, err
	}
	serial := opt.Options{MaxFactor: p.OptMaxFactor, Parallelism: 1}
	exhaustive := serial
	exhaustive.Exhaustive = true
	var out []OptPruneStat
	for n := 1; n <= gs.MinChannels(); n += p.ChannelStride {
		pruned, err := opt.Search(ctx, gs, n, serial)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at %d channels: %w", dist, n, err)
		}
		full, err := opt.Search(ctx, gs, n, exhaustive)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s at %d channels: %w", dist, n, err)
		}
		if pruned.Delay != full.Delay {
			return nil, fmt.Errorf("experiments: %s at %d channels: pruned delay %v != exhaustive %v",
				dist, n, pruned.Delay, full.Delay)
		}
		for i := range full.Frequencies {
			if pruned.Frequencies[i] != full.Frequencies[i] {
				return nil, fmt.Errorf("experiments: %s at %d channels: pruned %v != exhaustive %v",
					dist, n, pruned.Frequencies, full.Frequencies)
			}
		}
		out = append(out, OptPruneStat{
			Channels:   n,
			Delay:      full.Delay,
			Exhaustive: full.Evaluated,
			Pruned:     pruned.Evaluated,
			Reduction:  float64(full.Evaluated) / float64(pruned.Evaluated),
		})
	}
	return out, nil
}

// OptGapFromSeries derives the gap summary from an existing Figure 5
// series, avoiding a second sweep.
func OptGapFromSeries(s *Fig5Series) (*OptGap, error) {
	if s == nil || len(s.Points) == 0 {
		return nil, fmt.Errorf("experiments: empty series")
	}
	out := &OptGap{Dist: s.Dist, WorstChannel: s.Points[0].Channels}
	for _, pt := range s.Points {
		gap := pt.PAMADExact - pt.OPTExact
		if gap < 0 {
			gap = 0
		}
		if gap > out.MaxAbsGap {
			out.MaxAbsGap = gap
		}
		denom := pt.OPTExact
		if denom < 1 {
			denom = 1
		}
		if rel := gap / denom; rel > out.MaxRelGap {
			out.MaxRelGap = rel
			out.WorstChannel = pt.Channels
		}
		out.MeanAbsGap += gap
	}
	out.MeanAbsGap /= float64(len(s.Points))
	return out, nil
}
