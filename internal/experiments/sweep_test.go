package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// serialReference is the pre-engine Figure5 loop, kept verbatim as the
// equivalence oracle: one point after another in channel order, right
// endpoint appended when the stride skips it.
func serialReference(ctx context.Context, p Params, dist workload.Distribution) (*Fig5Series, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	gs, err := p.Instance(dist)
	if err != nil {
		return nil, err
	}
	series := &Fig5Series{Dist: dist, Set: gs, MinChannels: gs.MinChannels()}
	for n := 1; n <= series.MinChannels; n += p.ChannelStride {
		pt, err := figure5Point(ctx, p, gs, n)
		if err != nil {
			return nil, err
		}
		series.Points = append(series.Points, *pt)
	}
	if last := series.Points[len(series.Points)-1]; last.Channels != series.MinChannels {
		pt, err := figure5Point(ctx, p, gs, series.MinChannels)
		if err != nil {
			return nil, err
		}
		series.Points = append(series.Points, *pt)
	}
	return series, nil
}

// requireSameSeries fails unless the two series are bit-for-bit identical
// (Fig5Point is all ints and float64s, so struct equality is exact).
func requireSameSeries(t *testing.T, label string, want, got *Fig5Series) {
	t.Helper()
	if want.Dist != got.Dist || want.MinChannels != got.MinChannels {
		t.Fatalf("%s: series headers differ: %v/%d vs %v/%d",
			label, want.Dist, want.MinChannels, got.Dist, got.MinChannels)
	}
	if len(want.Points) != len(got.Points) {
		t.Fatalf("%s: point counts differ: %d vs %d", label, len(want.Points), len(got.Points))
	}
	for i := range want.Points {
		if want.Points[i] != got.Points[i] {
			t.Errorf("%s: point %d differs: %+v vs %+v", label, i, want.Points[i], got.Points[i])
		}
	}
}

// TestSweepMatchesSerialReference: the unified worker-pool engine
// reproduces the historical serial sweep bit-for-bit at the same seeds, at
// the default worker count and at 1 worker (the serial configuration).
func TestSweepMatchesSerialReference(t *testing.T) {
	p := fastParams()
	p.ChannelStride = 10
	ctx := context.Background()
	want, err := serialReference(ctx, p, workload.SSkewed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Figure5(ctx, p, workload.SSkewed, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSeries(t, "default workers", want, got)
	serial, err := Figure5(ctx, p, workload.SSkewed, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSeries(t, "1 worker", want, serial)
}

func TestSweepChannelCounts(t *testing.T) {
	tests := []struct {
		min, stride int
		want        []int
	}{
		{1, 1, []int{1}},
		{5, 1, []int{1, 2, 3, 4, 5}},
		{7, 3, []int{1, 4, 7}},
		{8, 3, []int{1, 4, 7, 8}},
		{63, 25, []int{1, 26, 51, 63}},
	}
	for _, tc := range tests {
		got := sweepChannelCounts(tc.min, tc.stride)
		if len(got) != len(tc.want) {
			t.Errorf("sweepChannelCounts(%d, %d) = %v, want %v", tc.min, tc.stride, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("sweepChannelCounts(%d, %d) = %v, want %v", tc.min, tc.stride, got, tc.want)
				break
			}
		}
	}
}

// TestSweepErrorContext: a failing point surfaces with the
// "experiments: <dist> at <n> channels" context at every sweep position —
// including the stride-skipped right endpoint, whose error the old serial
// loop's retry branch used to return bare.
func TestSweepErrorContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Figure5(ctx, fastParams(), workload.SSkewed, 0)
	if err == nil {
		t.Fatal("cancelled context accepted")
	}
	if !strings.Contains(err.Error(), "experiments: S-skewed at ") || !strings.Contains(err.Error(), " channels") {
		t.Errorf("error missing sweep context: %v", err)
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error does not wrap the cause: %v", err)
	}
}

// TestMeasurePinsLegacyPipeline: the streaming measure() reproduces the
// historical GenerateRequests + materialised-sampler AvgD bit for bit at
// the same derived seed — the invariant that keeps the Figure 5 series
// checksums frozen across the engine swap.
func TestMeasurePinsLegacyPipeline(t *testing.T) {
	p := fastParams()
	gs, err := p.Instance(workload.SSkewed)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	const alg = 0
	reqs, err := workload.GenerateRequests(prog.GroupSet(), prog.Length(), workload.RequestConfig{
		Count: p.Requests,
		Seed:  p.Seed*1_000_003 + int64(3)*31 + int64(alg),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	L := float64(prog.Length())
	var sum float64
	for _, r := range reqs {
		wait := a.NextAfter(r.Page, math.Mod(r.Arrival, L))
		delay := wait - float64(gs.TimeOf(r.Page))
		if delay < 0 {
			delay = 0
		}
		sum += delay
	}
	want := sum / float64(len(reqs))

	got, exact, err := measure(p, prog, 3, alg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("measured AvgD = %v (%#x), legacy pipeline %v (%#x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if math.Float64bits(exact) != math.Float64bits(a.AvgDelay()) {
		t.Errorf("exact AvgD drifted: %v vs %v", exact, a.AvgDelay())
	}
}
