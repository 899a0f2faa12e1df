package tcsa

// Benchmark harness: one benchmark per evaluation artifact of the paper
// (Figure 3 and the four Figure 5 subplots), plus micro-benchmarks for each
// pipeline stage. The figure benchmarks regenerate the corresponding data
// series per iteration — run `go run ./cmd/airbench -experiment all` for
// the full-resolution tables these benchmarks sample.

import (
	"context"
	"testing"

	"tcsa/internal/bdisk"
	"tcsa/internal/core"
	"tcsa/internal/experiments"
	"tcsa/internal/hybrid"
	"tcsa/internal/mpb"
	"tcsa/internal/ondemand"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// benchParams keeps figure benchmarks at sampling resolution; cmd/airbench
// runs the paper-resolution sweep.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Requests = 1000
	p.ChannelStride = 8
	return p
}

func benchFigure5(b *testing.B, dist workload.Distribution) {
	b.Helper()
	p := benchParams()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure5(ctx, p, dist)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFigure5Normal regenerates Figure 5(a): AvgD vs channels under
// the normal group-size distribution.
func BenchmarkFigure5Normal(b *testing.B) { benchFigure5(b, workload.Normal) }

// BenchmarkFigure5LSkewed regenerates Figure 5(b).
func BenchmarkFigure5LSkewed(b *testing.B) { benchFigure5(b, workload.LSkewed) }

// BenchmarkFigure5SSkewed regenerates Figure 5(c).
func BenchmarkFigure5SSkewed(b *testing.B) { benchFigure5(b, workload.SSkewed) }

// BenchmarkFigure5Uniform regenerates Figure 5(d).
func BenchmarkFigure5Uniform(b *testing.B) { benchFigure5(b, workload.Uniform) }

// BenchmarkFigure3 regenerates the group-size distribution table.
func BenchmarkFigure3(b *testing.B) {
	p := experiments.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(p); err != nil {
			b.Fatal(err)
		}
	}
}

// paperInstance is the paper's default uniform workload (n=1000, h=8,
// t=4..512).
func paperInstance(b *testing.B) *core.GroupSet {
	b.Helper()
	gs, err := workload.GroupSet(workload.Uniform, 8, 1000, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	return gs
}

// BenchmarkSUSCBuild measures building a valid program on the minimum
// channel count (paper §3).
func BenchmarkSUSCBuild(b *testing.B) {
	gs := paperInstance(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := susc.BuildMinimal(gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSUSCBuild1M measures the cursor-based construction at a million
// pages (h=4, t=256..2048, 250k pages per group). The cursor engine places
// whole repeat trains per page, so per-operation allocations stay
// independent of n (pinned by TestBuildAllocsIndependentOfPages in
// internal/susc).
func BenchmarkSUSCBuild1M(b *testing.B) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 1_000_000, 256, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := susc.BuildMinimal(gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPAMADPlace1M measures the Algorithm 4 placement engine alone
// at a million pages (h=4, t=256..2048, 250k pages per group), at 1/5 of
// the minimum channels. The frequency assignment is hoisted out so the
// sample isolates PlaceEvenly — the path the incremental replan engine's
// suffix replays reuse — whose per-operation allocation count is pinned by
// TestPlaceEvenlyAllocs in internal/pamad.
func BenchmarkPAMADPlace1M(b *testing.B) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 1_000_000, 256, 2)
	if err != nil {
		b.Fatal(err)
	}
	n := core.CeilDiv(gs.MinChannels(), 5)
	s, _, err := pamad.Frequencies(gs, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pamad.PlaceEvenly(gs, s, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPAMADFrequencies measures Algorithm 3 alone at 1/5 of the
// minimum channels.
func BenchmarkPAMADFrequencies(b *testing.B) {
	gs := paperInstance(b)
	n := core.CeilDiv(gs.MinChannels(), 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pamad.Frequencies(gs, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPAMADBuild measures the full PAMAD pipeline (Algorithms 3+4).
func BenchmarkPAMADBuild(b *testing.B) {
	gs := paperInstance(b)
	n := core.CeilDiv(gs.MinChannels(), 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := pamad.Build(gs, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPBBuild measures the m-PB baseline at the same budget (its
// cycle is far longer, which dominates the cost).
func BenchmarkMPBBuild(b *testing.B) {
	gs := paperInstance(b)
	n := core.CeilDiv(gs.MinChannels(), 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mpb.Build(gs, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOPTSearch measures the exhaustive frequency search the paper
// calls "unacceptably high" (parallelised here).
func BenchmarkOPTSearch(b *testing.B) {
	gs := paperInstance(b)
	n := core.CeilDiv(gs.MinChannels(), 5)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Search(ctx, gs, n, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppearanceIndex measures the flat CSR appearance-index build
// alone (the first stage of Analyze).
func BenchmarkAppearanceIndex(b *testing.B) {
	gs := paperInstance(b)
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := core.BuildAppearanceIndex(prog)
		if ix.Pages() != gs.Pages() {
			b.Fatal("bad index")
		}
	}
}

// BenchmarkAnalyze measures the closed-form delay analysis of a PAMAD
// program.
func BenchmarkAnalyze(b *testing.B) {
	gs := paperInstance(b)
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.Analyze(prog)
		if a.AvgWait() <= 0 {
			b.Fatal("bad analysis")
		}
	}
}

// BenchmarkMeasure3000 measures the paper's 3000-request evaluation of one
// program.
func BenchmarkMeasure3000(b *testing.B) {
	gs := paperInstance(b)
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		b.Fatal(err)
	}
	a := core.Analyze(prog)
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 3000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MeasureAnalyzed(a, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// measureStream1M builds the paper-default program and a million-request
// generated stream for the streaming-engine benchmarks.
func measureStream1M(b *testing.B) (*core.Analysis, workload.Stream) {
	b.Helper()
	gs := paperInstance(b)
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return core.Analyze(prog), stream
}

// BenchmarkMeasureStream1M measures the serial streaming engine over a
// million generated requests: no request slice, no sample slices.
func BenchmarkMeasureStream1M(b *testing.B) {
	a, stream := measureStream1M(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MeasureStream(a, stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureParallel1M measures the sharded engine at GOMAXPROCS
// workers over the same million-request stream; the result is bit-for-bit
// what BenchmarkMeasureStream1M's serial pass computes.
func BenchmarkMeasureParallel1M(b *testing.B) {
	a, stream := measureStream1M(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MeasureParallel(a, stream, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventSimClients measures the full discrete-event client
// simulation (airwave + eventsim) for 200 schedule-aware clients.
func BenchmarkEventSimClients(b *testing.B) {
	gs, err := workload.GroupSet(workload.Uniform, 6, 300, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 8)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 200, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(prog, reqs, sim.Config{Mode: sim.ScheduleAware}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeBuild measures the public API end to end on the paper's
// default instance at the minimum channel count (SUSC path) and one below
// (PAMAD path).
func BenchmarkFacadeBuild(b *testing.B) {
	gs := paperInstance(b)
	min := gs.MinChannels()
	b.Run("susc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(gs, min); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pamad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(gs, min-1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBDiskBuild measures the Broadcast Disks baseline construction.
func BenchmarkBDiskBuild(b *testing.B) {
	gs := paperInstance(b)
	disks := bdisk.DeadlineDisks(gs)
	n := core.CeilDiv(gs.MinChannels(), 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bdisk.Build(gs, disks, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridRun measures the coupled broadcast+pull simulation with
// 500 impatient clients.
func BenchmarkHybridRun(b *testing.B) {
	gs, err := workload.GroupSet(workload.Uniform, 6, 300, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 8)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 500, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	cfg := hybrid.Config{Air: sim.Config{AbandonAfter: 1.5}, Pull: ondemand.Config{ServiceTime: 3}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Run(prog, reqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
