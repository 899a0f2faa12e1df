package main

import (
	"context"
	"fmt"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/experiments"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/perf"
	"tcsa/internal/sim"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// sweepParams is the spec the sweep gate pins: the paper's defaults
// sampled at every 8th channel count with 300 requests per point and OPT
// skipped. Changing it is a deliberate BENCH_sweep.json break.
func sweepParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Requests = 300
	p.ChannelStride = 8
	p.SkipOPT = true
	return p
}

// runSweep measures the analysis and sweep hot paths with
// testing.Benchmark and fingerprints the results they produce, including
// the S-skewed Figure 5 series.
func runSweep(rec *recorder) error {
	p := sweepParams()
	prog, err := paperProgram(p)
	if err != nil {
		return err
	}
	rec.add("AppearanceIndex", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.BuildAppearanceIndex(prog)
		}
	}), "")
	var analysis *core.Analysis
	rec.add("Analyze", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analysis = core.Analyze(prog)
		}
	}), perf.SeriesChecksum([]float64{analysisFingerprint(analysis)}))

	// The measurement engine over a multi-shard stream: serial and parallel
	// samples share one generated stream, and by the engine's determinism
	// contract they must fingerprint identically.
	stream, err := workload.NewStream(prog.GroupSet(), prog.Length(), workload.RequestConfig{
		Count: 2 * workload.ShardSize,
		Seed:  p.Seed,
	})
	if err != nil {
		return err
	}
	var measured *sim.Metrics
	rec.add("Measure", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := sim.MeasureStream(analysis, stream)
			if err != nil {
				b.Fatal(err)
			}
			measured = m
		}
	}), perf.SeriesChecksum(metricsFloats(measured)))
	rec.add("MeasureParallel", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := sim.MeasureParallel(analysis, stream, 0)
			if err != nil {
				b.Fatal(err)
			}
			measured = m
		}
	}), perf.SeriesChecksum(metricsFloats(measured)))

	var series *experiments.Fig5Series
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := experiments.Figure5(context.Background(), p, workload.SSkewed, 0)
			if err != nil {
				b.Fatal(err)
			}
			series = s
		}
	})
	if series == nil {
		return fmt.Errorf("Figure5 %v produced no series", workload.SSkewed)
	}
	rec.add("Figure5/"+workload.SSkewed.String(), r, perf.SeriesChecksum(seriesFloats(series)))
	return nil
}

// runBuild measures the construction engine — the three schedulers'
// build paths — on the paper's default instance, fingerprinting each
// produced grid (and OPT's result vector) so the trajectory also detects
// silent output drift, not just slowdowns.
func runBuild(rec *recorder) error {
	p := experiments.DefaultParams()
	gs, err := p.Instance(workload.Uniform)
	if err != nil {
		return err
	}
	n := core.CeilDiv(gs.MinChannels(), 5)

	var suscProg *core.Program
	rec.add("SUSCBuild", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog, err := susc.BuildMinimal(gs)
			if err != nil {
				b.Fatal(err)
			}
			suscProg = prog
		}
	}), perf.SeriesChecksum(gridFloats(suscProg)))

	var pamadProg *core.Program
	rec.add("PAMADBuild", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog, _, err := pamad.Build(gs, n)
			if err != nil {
				b.Fatal(err)
			}
			pamadProg = prog
		}
	}), perf.SeriesChecksum(gridFloats(pamadProg)))

	ctx := context.Background()
	var optRes *opt.Result
	rec.add("OPTSearch", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := opt.Search(ctx, gs, n, opt.Options{})
			if err != nil {
				b.Fatal(err)
			}
			optRes = res
		}
	}), perf.SeriesChecksum(optFloats(optRes)))

	// OPT-quality at paper-scale x100: branch-and-bound cannot touch the
	// 10^5-page instance, but the (1+eps) PTAS can, so the Figure-5 OPT
	// curve extends there through opt.Approx at eps=0.01. Each sampled
	// channel fraction records the PTAS delay next to PAMAD's analytic D'
	// on the same frequencies domain; the checksum pins both so either
	// engine drifting silently breaks the baseline.
	big, err := p.ScaledInstance(workload.Uniform, 100)
	if err != nil {
		return err
	}
	bigMin := big.MinChannels()
	var quality []float64
	rec.add("ApproxQualityX100", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			quality = quality[:0]
			for _, div := range []int{5, 3, 2} {
				nBig := core.CeilDiv(bigMin, div)
				res, err := opt.Approx(ctx, big, nBig, opt.ApproxOptions{Eps: 0.01})
				if err != nil {
					b.Fatal(err)
				}
				sp, _, err := pamad.Frequencies(big, nBig)
				if err != nil {
					b.Fatal(err)
				}
				quality = append(quality, float64(nBig), res.Delay,
					delaymodel.GroupDelay(big, sp, nBig))
			}
		}
	}), perf.SeriesChecksum(quality))
	for i := 0; i+2 < len(quality); i += 3 {
		fmt.Fprintf(rec.out, "  x100 quality @%4.0f channels: PTAS D' %10.2f  PAMAD D' %10.2f  gap %.4f\n",
			quality[i], quality[i+1], quality[i+2], quality[i+2]/quality[i+1])
	}
	return nil
}

// gridFloats flattens a program into the float sequence its checksum
// fingerprints: the shape, the fill count, and every cell in row-major
// order, so any placement drift changes the series.
func gridFloats(prog *core.Program) []float64 {
	if prog == nil {
		return nil
	}
	vals := make([]float64, 0, 3+prog.Channels()*prog.Length())
	vals = append(vals, float64(prog.Channels()), float64(prog.Length()), float64(prog.Filled()))
	for ch := 0; ch < prog.Channels(); ch++ {
		for slot := 0; slot < prog.Length(); slot++ {
			vals = append(vals, float64(prog.At(ch, slot)))
		}
	}
	return vals
}

// optFloats fingerprints an OPT result by its deterministic fields (delay
// and frequencies; Evaluated varies with worker timing).
func optFloats(res *opt.Result) []float64 {
	if res == nil {
		return nil
	}
	vals := []float64{res.Delay}
	for _, s := range res.Frequencies {
		vals = append(vals, float64(s))
	}
	return vals
}

// paperProgram builds the instance the micro-benchmarks measure: the
// paper's default table for the sweep's distribution selection is
// irrelevant here, so it pins uniform at 1/5 of the minimum channels (the
// paper's knee), matching the repository benchmarks and allocation guards.
func paperProgram(p experiments.Params) (*core.Program, error) {
	gs, err := p.Instance(workload.Uniform)
	if err != nil {
		return nil, err
	}
	n := core.CeilDiv(gs.MinChannels(), 5)
	prog, _, err := pamad.Build(gs, n)
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// analysisFingerprint reduces an analysis to the scalar its users consume.
func analysisFingerprint(a *core.Analysis) float64 {
	if a == nil {
		return 0
	}
	return a.AvgDelay()
}

// metricsFloats flattens a measurement into the float sequence its
// checksum fingerprints: the exact scalars plus the sketch quantiles, all
// of which the engine guarantees are worker-count-independent.
func metricsFloats(m *sim.Metrics) []float64 {
	if m == nil {
		return nil
	}
	return []float64{
		float64(m.Requests), m.AvgWait, m.AvgDelay, m.MissRatio,
		m.Wait.P50, m.Wait.P95, m.Wait.P99,
		m.Delay.P50, m.Delay.P95, m.Delay.P99,
	}
}

// seriesFloats flattens a Figure 5 series into the float sequence its
// checksum fingerprints: every numeric field of every point, in order.
func seriesFloats(s *experiments.Fig5Series) []float64 {
	vals := make([]float64, 0, 7*len(s.Points))
	for _, pt := range s.Points {
		vals = append(vals, float64(pt.Channels),
			pt.PAMAD, pt.MPB, pt.OPT,
			pt.PAMADExact, pt.MPBExact, pt.OPTExact)
	}
	return vals
}
