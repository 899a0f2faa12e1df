package main

import (
	"net"
	"sync"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/experiments"
	"tcsa/internal/online"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// paperFixture is the instance most golden rows measure: the paper's
// default uniform table scheduled by PAMAD at 1/5 of the minimum channels
// (the paper's knee), its analysis, and a 2·ShardSize request stream.
type paperFixture struct {
	gs       *core.GroupSet
	n        int
	prog     *core.Program
	analysis *core.Analysis
	stream   workload.Stream
}

var paper = sync.OnceValues(func() (*paperFixture, error) {
	p := experiments.DefaultParams()
	gs, err := p.Instance(workload.Uniform)
	if err != nil {
		return nil, err
	}
	n := core.CeilDiv(gs.MinChannels(), 5)
	prog, _, err := pamad.Build(gs, n)
	if err != nil {
		return nil, err
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count: 2 * workload.ShardSize,
		Seed:  p.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &paperFixture{gs: gs, n: n, prog: prog, analysis: core.Analyze(prog), stream: stream}, nil
})

// mustPaper returns the shared paper fixture or fails t.
func mustPaper(t *testing.T) *paperFixture {
	t.Helper()
	f, err := paper()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// chaosFaultedConfig is the canonical all-classes fault mix the faulted
// rows pin: every fault class active, plus the graceful-degradation
// replan. Changing any constant here changes their checksum.
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

// udpBenchSubs is the fan-out population the UDP rows measure: large
// enough that the serial per-subscriber loop visibly monopolises the
// slot clock.
const udpBenchSubs = 10_000

// udpSubscribers returns udpBenchSubs destinations spread over eight
// loopback sinks that t closes when it ends.
func udpSubscribers(t *testing.T) []*net.UDPAddr {
	t.Helper()
	sinks := make([]*net.UDPAddr, 8)
	for i := range sinks {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		sinks[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	addrs := make([]*net.UDPAddr, udpBenchSubs)
	for i := range addrs {
		addrs[i] = sinks[i%len(sinks)]
	}
	return addrs
}

// udpSender is a loopback socket that t closes when it ends.
func udpSender(t *testing.T) *net.UDPConn {
	t.Helper()
	sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	return sender
}

// replanInstance is the paper's uniform shape scaled to 10^5 pages, the
// instance the incremental-replan rows measure.
var replanInstance = sync.OnceValues(func() (*core.GroupSet, error) {
	return workload.GroupSet(workload.Uniform, 8, 100_000, 4, 2)
})

// hybridBenchInstance is the online rows' workload: a scarce mid-size
// instance with enough pressure that both tiers carry real load.
func hybridBenchInstance(t *testing.T) (*core.Program, workload.Stream, online.Config) {
	t.Helper()
	gs, err := workload.GroupSet(workload.Uniform, 8, 400, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 120_000, Seed: 9},
		Rate:          24,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog, stream, online.Config{Policy: online.LWF, Split: online.Split{Mode: online.SplitReserved, OnlineChannels: 1}}
}

// gridFloats flattens a program into the float sequence its checksum
// fingerprints: the shape, the fill count, and every cell in row-major
// order, so any placement drift changes the series.
func gridFloats(prog *core.Program) []float64 {
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
	vals := []float64{res.Delay}
	for _, s := range res.Frequencies {
		vals = append(vals, float64(s))
	}
	return vals
}

// metricsFloats flattens a measurement into the float sequence its
// checksum fingerprints: the exact scalars plus the sketch quantiles, all
// of which the engine guarantees are worker-count-independent.
func metricsFloats(m *sim.Metrics) []float64 {
	return []float64{
		float64(m.Requests), m.AvgWait, m.AvgDelay, m.MissRatio,
		m.Wait.P50, m.Wait.P95, m.Wait.P99,
		m.Delay.P50, m.Delay.P95, m.Delay.P99,
	}
}

// chaosFloats flattens a chaos result into the float sequence its
// checksum fingerprints: the measurement scalars, the deadline-miss
// accounting, every ledger counter, the trace digest (split into exact
// 32-bit halves), and the replan outcome when one happened. All of these
// are worker-count-independent by the engine's determinism contract.
func chaosFloats(r *chaos.Result) []float64 {
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

// onlineSeries flattens an online result into the float series its
// checksum fingerprints. The FNV trace digest rides along as two 32-bit
// halves (a uint64 does not fit a float64 exactly).
func onlineSeries(res *online.Result) []float64 {
	return []float64{
		res.AvgFlow, res.MaxFlow, res.AvgDelayFactor, res.MaxDelayFactor,
		float64(res.Requests), float64(res.PushServed), float64(res.OnlineServed),
		float64(res.OnlineAirings), float64(res.StolenSlots), float64(res.HorizonSlots),
		float64(res.TraceDigest >> 32), float64(res.TraceDigest & 0xffffffff),
	}
}
