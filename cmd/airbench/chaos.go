package main

import (
	"fmt"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/experiments"
	"tcsa/internal/perf"
	"tcsa/internal/sim"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// chaosFaultedConfig is the canonical all-classes fault mix the committed
// BENCH_chaos.json baseline pins: every fault class active, plus the
// graceful-degradation replan. Changing any constant here is a deliberate
// baseline break.
func chaosFaultedConfig(seed int64) chaos.Config {
	return chaos.Config{
		Seed:       seed,
		Loss:       0.10,
		Corrupt:    0.02,
		Churn:      0.05,
		Jitter:     0.25,
		StallEvery: 64,
		StallFor:   4,
		Burst:      &chaos.BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8},
		Replan:     true,
	}
}

// runChaos measures the chaos engine on the paper's default instance.
// Its load-bearing assertion
// is the zero-fault identity: a chaos run with no faults enabled must
// fingerprint bit-for-bit identically to sim.MeasureStream, which is
// checked here directly and then pinned across commits by the checksum in
// the committed baseline.
func runChaos(rec *recorder) error {
	p := experiments.DefaultParams()
	prog, err := paperProgram(p)
	if err != nil {
		return err
	}
	analysis := core.Analyze(prog)
	stream, err := workload.NewStream(prog.GroupSet(), prog.Length(), workload.RequestConfig{
		Count: 2 * workload.ShardSize,
		Seed:  p.Seed,
	})
	if err != nil {
		return err
	}

	// The reference the zero-fault identity is checked against.
	measured, err := sim.MeasureStream(analysis, stream)
	if err != nil {
		return err
	}
	measureSum := perf.SeriesChecksum(metricsFloats(measured))

	var zero *chaos.Result
	zeroSum := rec.add("ChaosZeroFault", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := chaos.RunParallel(analysis, stream, chaos.Config{Seed: p.Seed}, 0)
			if err != nil {
				b.Fatal(err)
			}
			zero = r
		}
	}), perf.SeriesChecksum(metricsFloats(&zero.Metrics))).Checksum
	if zeroSum != measureSum {
		return fmt.Errorf("zero-fault run drifted from sim.MeasureStream: %s != %s",
			zeroSum, measureSum)
	}
	if zero.Ledger != (chaos.Ledger{}) {
		return fmt.Errorf("zero-fault run registered faults: ledger %+v", zero.Ledger)
	}
	fmt.Fprintf(rec.out, "zero-fault identity holds: chaos == MeasureStream (%s)\n", zeroSum)

	// The miss-free law: on a SUSC-valid program (sufficient channels),
	// zero faults must mean zero deadline misses. The sweep instance above
	// runs PAMAD at 1/5 of minimum, where misses are the measurement, so
	// the law is checked on the same group set scheduled validly.
	valid, err := susc.BuildMinimal(prog.GroupSet())
	if err != nil {
		return err
	}
	vres, err := chaos.RunParallel(core.Analyze(valid), stream, chaos.Config{Seed: p.Seed}, 0)
	if err != nil {
		return err
	}
	if err := conformance.MissFreeLaw(valid, vres.Misses); err != nil {
		return err
	}
	fmt.Fprintf(rec.out, "miss-free law holds: SUSC-valid program, zero faults, %d misses\n", vres.Misses)

	var faulted *chaos.Result
	rec.add("ChaosFaulted", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := chaos.RunParallel(analysis, stream, chaosFaultedConfig(p.Seed), 0)
			if err != nil {
				b.Fatal(err)
			}
			faulted = r
		}
	}), perf.SeriesChecksum(chaosFloats(faulted)))
	fmt.Fprintf(rec.out, "faulted run: misses %d (ratio %.4f), effective loss %.4f, digest %016x\n",
		faulted.Misses, faulted.MissRatio, faulted.EffectiveLoss, faulted.TraceDigest)
	return nil
}

// chaosFloats flattens a chaos result into the float sequence its
// checksum fingerprints: the measurement scalars, the deadline-miss
// accounting, every ledger counter, the trace digest (split into exact
// 32-bit halves), and the replan outcome when one happened. All of these
// are worker-count-independent by the engine's determinism contract.
func chaosFloats(r *chaos.Result) []float64 {
	if r == nil {
		return nil
	}
	vals := metricsFloats(&r.Metrics)
	vals = append(vals,
		float64(r.Misses), r.Delay.Max,
		float64(r.Ledger.LostDeliveries), float64(r.Ledger.CorruptSkips),
		float64(r.Ledger.StallSkips), float64(r.Ledger.ChurnSkips),
		float64(r.Ledger.Retries), float64(r.Ledger.Unserved),
		r.EffectiveLoss,
		float64(r.TraceDigest>>32), float64(r.TraceDigest&0xffffffff),
	)
	if r.Replan != nil {
		vals = append(vals, float64(r.Replan.EffectiveChannels),
			float64(r.Replan.MajorCycle), r.Replan.AnalyticDelay)
		for _, s := range r.Replan.Frequencies {
			vals = append(vals, float64(s))
		}
	}
	return vals
}
