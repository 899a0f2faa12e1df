// Package experiments is the reproduction harness for the evaluation
// section of "Time-Constrained Service on Air" (ICDCS 2005). Every figure
// and table of the paper maps to one function here (see DESIGN.md's
// per-experiment index); cmd/airbench and the repository benchmarks are
// thin wrappers over this package.
//
//	Figure3  -> the four group-size distributions (workload shapes)
//	Figure4  -> the default parameter table (DefaultParams)
//	Figure5  -> AvgD vs channel count for PAMAD / m-PB / OPT, per shape
//	Knee     -> the "1/5 of the minimum channels is enough" observation
//	AblateTieBreak / ModelCheck -> design-choice ablations from DESIGN.md
package experiments

import (
	"context"
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/mpb"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Params mirrors the paper's Figure 4 parameter table, plus reproduction
// knobs the paper leaves implicit. The expected times are always the
// paper's t_i = 4, 8, ... (workload.PaperBaseTime, workload.PaperRatio).
type Params struct {
	//lint:ignore testonly tests shrink the instance to keep the experiment suites fast
	Pages int // n - total number of data pages (paper: 1000)
	//lint:ignore testonly tests shrink the instance to keep the experiment suites fast
	Groups   int   // h - number of expected-time groups (paper: 8)
	Requests int   // requests per measured point (paper: 3000)
	Seed     int64 // master seed; everything downstream derives from it

	// ChannelStride samples every k-th channel count in sweeps; 1 = every
	// count (the paper's plots). Benchmarks use larger strides.
	ChannelStride int
	// SkipOPT drops the OPT series (it dominates sweep cost on wide
	// instances).
	SkipOPT bool
}

// DefaultParams returns the paper's Figure 4 settings.
func DefaultParams() Params {
	return Params{
		Pages:         workload.PaperPages,
		Groups:        workload.PaperGroups,
		Requests:      3000,
		Seed:          1,
		ChannelStride: 1,
	}
}

// Instance materialises the group set for one distribution under p.
func (p Params) Instance(dist workload.Distribution) (*core.GroupSet, error) {
	return workload.GroupSet(dist, p.Groups, p.Pages, workload.PaperBaseTime, workload.PaperRatio)
}

// validate normalises and sanity-checks p.
func (p *Params) validate() error {
	if p.Pages < p.Groups || p.Groups < 1 {
		return fmt.Errorf("experiments: %d pages over %d groups", p.Pages, p.Groups)
	}
	if p.Requests < 1 {
		return fmt.Errorf("experiments: %d requests", p.Requests)
	}
	if p.ChannelStride < 1 {
		p.ChannelStride = 1
	}
	return nil
}

// Fig5Point is one x-position of a Figure 5 subplot: the measured and
// closed-form average delay of the three algorithms at one channel count.
type Fig5Point struct {
	Channels int
	// Measured AvgD over p.Requests random requests (the paper's metric).
	PAMAD, MPB, OPT float64
	// Exact closed-form AvgD of the same programs (infinite requests).
	PAMADExact, MPBExact, OPTExact float64
}

// Fig5Series is one subplot of Figure 5.
type Fig5Series struct {
	Dist        workload.Distribution
	Set         *core.GroupSet
	MinChannels int
	Points      []Fig5Point
}

func figure5Point(ctx context.Context, p Params, gs *core.GroupSet, n int) (*Fig5Point, error) {
	pt := &Fig5Point{Channels: n}

	// The Monte-Carlo measures below are the expensive stages and do not
	// take the context themselves (they are deterministic batch work);
	// poll between them so a cancelled sweep stops at the next stage
	// boundary instead of finishing the whole point.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pamadProg, _, err := pamad.Build(gs, n)
	if err != nil {
		return nil, fmt.Errorf("pamad: %w", err)
	}
	pt.PAMAD, pt.PAMADExact, err = measure(p, pamadProg, n, 0)
	if err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mpbProg, _, err := mpb.Build(gs, n)
	if err != nil {
		return nil, fmt.Errorf("mpb: %w", err)
	}
	pt.MPB, pt.MPBExact, err = measure(p, mpbProg, n, 1)
	if err != nil {
		return nil, err
	}

	if p.SkipOPT {
		return pt, nil
	}
	optProg, _, err := opt.Build(ctx, gs, n, opt.Options{})
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	pt.OPT, pt.OPTExact, err = measure(p, optProg, n, 2)
	if err != nil {
		return nil, err
	}
	return pt, nil
}

// measure returns (Monte-Carlo AvgD over p.Requests, closed-form AvgD) for
// one program. The request seed is derived from (master seed, channel
// count, algorithm) so every point is reproducible in isolation. Requests
// are generated on the fly through the streaming engine rather than
// materialised; for counts up to workload.ShardSize (every paper setting)
// the stream occupies one shard and AvgD is bit-for-bit what the
// historical GenerateRequests + MeasureAnalyzed pipeline computed.
func measure(p Params, prog *core.Program, n, alg int) (measured, exact float64, err error) {
	stream, err := workload.NewStream(prog.GroupSet(), prog.Length(), workload.RequestConfig{
		Count: p.Requests,
		Seed:  p.Seed*1_000_003 + int64(n)*31 + int64(alg),
	})
	if err != nil {
		return 0, 0, err
	}
	a := core.Analyze(prog)
	m, err := sim.MeasureStream(a, stream)
	if err != nil {
		return 0, 0, err
	}
	return m.AvgDelay, a.AvgDelay(), nil
}

// Fig3Row is one distribution's group sizes.
type Fig3Row struct {
	Dist   workload.Distribution
	Counts []int
}

// Figure3 reproduces the group-size distribution shapes of Figure 3.
func Figure3(p Params) ([]Fig3Row, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	var rows []Fig3Row
	for _, dist := range workload.Distributions() {
		counts, err := workload.GroupCounts(dist, p.Groups, p.Pages)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{Dist: dist, Counts: counts})
	}
	return rows, nil
}
