package opt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// TestApproxDifferentialSmall pins the PTAS against branch-and-bound on
// every random instance B&B can finish: the returned vector must be a
// family member with delay within (1+ε) of the exact optimum. These
// families sit under the exact-scan limit, so the bound holds with ratio
// exactly 1 — the assertions check both.
func TestApproxDifferentialSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		gs := randomGroupSet(rng, 4)
		nReal := 1 + rng.Intn(gs.MinChannels())
		sres, err := Search(ctx, gs, nReal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.05, 0.1} {
			ares, err := Approx(ctx, gs, nReal, ApproxOptions{Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			if err := conformance.DivisorChainFamily(gs, ares.Frequencies); err != nil {
				t.Fatalf("instance %v N=%d: %v", gs, nReal, err)
			}
			if ares.Delay > sres.Delay*(1+eps)+1e-12 {
				t.Fatalf("instance %v N=%d eps=%v: approx %v > (1+ε)·opt %v (S=%v vs %v)",
					gs, nReal, eps, ares.Delay, sres.Delay, ares.Frequencies, sres.Frequencies)
			}
			if ares.Delay != sres.Delay {
				t.Errorf("instance %v N=%d: exact-regime approx %v != opt %v",
					gs, nReal, ares.Delay, sres.Delay)
			}
		}
	}
}

// TestApproxDifferentialWide exercises the genuinely approximate path —
// grid merging active — on wide paper-shaped instances where Search's
// branch-and-bound still finishes, at several channel budgets across the
// delay regime. This is the load-bearing (1+ε) gate.
func TestApproxDifferentialWide(t *testing.T) {
	ctx := context.Background()
	for _, h := range []int{8, 10, 12} {
		gs := paperUniform(125, h)
		min := gs.MinChannels()
		for _, nReal := range []int{1 + min/10, 1 + min/5, 1 + min/2} {
			sres, err := Search(ctx, gs, nReal, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.05, 0.1, 0.25} {
				ares, err := Approx(ctx, gs, nReal, ApproxOptions{Eps: eps})
				if err != nil {
					t.Fatal(err)
				}
				if err := conformance.DivisorChainFamily(gs, ares.Frequencies); err != nil {
					t.Fatalf("h=%d N=%d: %v", h, nReal, err)
				}
				if ares.Delay > sres.Delay*(1+eps)+1e-12 {
					t.Errorf("h=%d N=%d eps=%v: approx %v > (1+ε)·opt %v (S=%v vs %v)",
						h, nReal, eps, ares.Delay, sres.Delay, ares.Frequencies, sres.Frequencies)
				} else if sres.Delay > 0 {
					t.Logf("h=%d N=%d eps=%.2f: ratio %.6f (%d vs %d evaluations)",
						h, nReal, eps, ares.Delay/sres.Delay, ares.Evaluated, sres.Evaluated)
				}
			}
		}
	}
}

// TestApproxParallelismBitIdentical: the scoring shard layout must not leak
// into the result — frequencies, delay and Evaluated are pinned across
// worker counts, on an exact-regime and a grid-merging instance.
func TestApproxParallelismBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		gs    *core.GroupSet
		nReal int
		eps   float64
		pars  []int
	}{
		{paperUniform(25, 8), 10, 0, []int{2, 4, 8, 32}},
		{paperUniform(125, 10), 15, 0.1, []int{4, 8}},
	} {
		base, err := Approx(ctx, tc.gs, tc.nReal, ApproxOptions{Eps: tc.eps, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range tc.pars {
			res, err := Approx(ctx, tc.gs, tc.nReal, ApproxOptions{Eps: tc.eps, Parallelism: par})
			if err != nil {
				t.Fatalf("h=%d parallelism %d: %v", tc.gs.Len(), par, err)
			}
			if res.Delay != base.Delay || res.Evaluated != base.Evaluated ||
				!slices.Equal(res.Frequencies, base.Frequencies) {
				t.Errorf("h=%d parallelism %d: %+v, want %+v", tc.gs.Len(), par, res, base)
			}
		}
	}
}

func TestApproxErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Approx(ctx, nil, 3, ApproxOptions{}); err == nil {
		t.Error("nil group set accepted")
	}
	if _, err := Approx(ctx, fig2(), 0, ApproxOptions{}); err == nil {
		t.Error("0 channels accepted")
	}
}

// TestApproxEpsRange covers both edges of the accepted slack: below 0.01
// the exact regime would scan families of up to 16/ε² members in memory,
// so Approx refuses before any work.
func TestApproxEpsRange(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		gs      *core.GroupSet
		nReal   int
		eps     float64
		wantErr bool
	}{
		{"negative eps", fig2(), 3, -0.5, true},
		{"NaN eps", fig2(), 3, math.NaN(), true},
		{"infinite eps", fig2(), 3, math.Inf(1), true},
		{"eps below the floor", fig2(), 3, 0.0099, true},
		{"eps 1e-4", fig2(), 3, 1e-4, true},
		{"eps 1e-4 on a single group", core.MustGroupSet([]core.Group{{Time: 4, Count: 10}}), 1, 1e-4, true},
		{"eps at the floor", fig2(), 3, 0.01, false},
		{"default eps", fig2(), 3, 0, false},
		{"eps 1", fig2(), 3, 1, false},
	} {
		_, err := Approx(ctx, tc.gs, tc.nReal, ApproxOptions{Eps: tc.eps})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestApproxSingleGroup(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 10}})
	res, stats, err := approx(context.Background(), gs, 1, ApproxOptions{}, defaultMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Frequencies, delaymodel.Frequencies{1}) || res.Evaluated != 1 {
		t.Errorf("result %+v, want the single member [1] scored once", res)
	}
	if !stats.exact {
		t.Error("single group must be exact")
	}
}

// TestApproxCancelledMidSearch mirrors Search's countdown-context gate: a
// context expiring partway through must surface as an error, never as a
// silently truncated result.
func TestApproxCancelledMidSearch(t *testing.T) {
	gs := paperUniform(5, 8)
	full, err := Approx(context.Background(), gs, 10, ApproxOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancelledAtLeastOnce := false
	for calls := int64(1); calls <= 64; calls *= 2 {
		res, err := Approx(newCountdownCtx(calls), gs, 10, ApproxOptions{Parallelism: 1})
		if err == nil {
			if res.Evaluated != full.Evaluated || res.Delay != full.Delay {
				t.Fatalf("calls=%d: complete run diverged: %+v vs %+v", calls, res, full)
			}
			continue
		}
		cancelledAtLeastOnce = true
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("calls=%d: err = %v, want context.Canceled", calls, err)
		}
		if res != nil {
			t.Fatalf("calls=%d: truncated approx returned a result alongside the error", calls)
		}
	}
	if !cancelledAtLeastOnce {
		t.Fatal("countdown context never truncated the approx run — test exercised nothing")
	}
}

func TestApproxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Approx(ctx, fig2(), 3, ApproxOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-cancelled approx returned a result")
	}
}

func TestGridDerivation(t *testing.T) {
	// (1+δ)^(2h) must not exceed 1+ε: one rounding per chain position on
	// each of the two grid axes compounds to at most the requested slack.
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.25, 1.0} {
		for _, h := range []int{1, 2, 8, 16, 32} {
			d := grid(eps, h)
			if d <= 0 {
				t.Fatalf("grid(%v, %d) = %v, want > 0", eps, h, d)
			}
			if got := math.Pow(1+d, float64(2*h)); got > 1+eps+1e-12 {
				t.Errorf("grid(%v, %d): (1+δ)^(2h) = %v > 1+ε", eps, h, got)
			}
		}
	}
	if grid(0.1, 16) >= grid(0.1, 8) {
		t.Error("grid not finer for larger h")
	}
	if grid(0.05, 8) >= grid(0.1, 8) {
		t.Error("grid not finer for smaller eps")
	}
}

func TestExactLimitScaling(t *testing.T) {
	if exactLimit(0.1) != 4096 {
		t.Errorf("exactLimit(0.1) = %v, want the 4096 floor", exactLimit(0.1))
	}
	if exactLimit(0.01) <= exactLimit(0.05) {
		t.Error("tighter eps must widen the exact regime")
	}
}

func TestApproxFigure2(t *testing.T) {
	res, stats, err := approx(context.Background(), fig2(), 3, ApproxOptions{}, defaultMaxStates)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.exact {
		t.Error("Figure 2 family should be scanned exactly")
	}
	// PAMAD finds S=(4,2,1) with D'=1/24 here and the family optimum
	// matches; the exact-path scan must find it.
	if res.Delay > 1.0/24.0+1e-12 {
		t.Errorf("delay %v worse than the known optimum 1/24 (S=%v)", res.Delay, res.Frequencies)
	}
	if err := conformance.DivisorChainFamily(fig2(), res.Frequencies); err != nil {
		t.Error(err)
	}
	if res.Evaluated == 0 || stats.states == 0 {
		t.Errorf("diagnostics not recorded: %+v %+v", res, stats)
	}
}

// TestApproxZeroDelayCoverage: whenever the channel budget admits a
// zero-delay vector at all, the clamped sufficient-frequency seed
// guarantees Approx returns one — the regime where a (1+ε) multiplicative
// bound demands exact optimality.
func TestApproxZeroDelayCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		gs := randomGroupSet(rng, 4)
		nReal := gs.MinChannels() + rng.Intn(3)
		res, err := Approx(ctx, gs, nReal, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay != 0 {
			t.Errorf("instance %v N=%d >= minimum %d: delay %v, want 0",
				gs, nReal, gs.MinChannels(), res.Delay)
		}
	}
}

// TestApproxFamilyValidity: every returned vector is a divisor-chain
// member, on exact and approximate paths alike.
func TestApproxFamilyValidity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		gs := randomGroupSet(rng, 4)
		nReal := 1 + rng.Intn(gs.MinChannels())
		res, err := Approx(ctx, gs, nReal, ApproxOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.DivisorChainFamily(gs, res.Frequencies); err != nil {
			t.Fatalf("instance %v N=%d: %v (S=%v)", gs, nReal, err, res.Frequencies)
		}
	}
	// Approximate path: a wide instance whose family exceeds the exact
	// limit, at several slacks.
	gs := paperUniform(20, 10)
	for _, eps := range []float64{0.05, 0.1, 0.5} {
		res, stats, err := approx(ctx, gs, 12, ApproxOptions{Eps: eps}, defaultMaxStates)
		if err != nil {
			t.Fatal(err)
		}
		if stats.exact {
			t.Fatalf("eps=%v: h=10 family unexpectedly within the exact limit", eps)
		}
		if err := conformance.DivisorChainFamily(gs, res.Frequencies); err != nil {
			t.Fatalf("eps=%v: %v (S=%v)", eps, err, res.Frequencies)
		}
	}
}

// TestApproxBeamTruncation: a tiny frontier cap must engage the safety
// valve, be reported, and still yield a valid family member.
func TestApproxBeamTruncation(t *testing.T) {
	gs := paperUniform(10, 10)
	res, stats, err := approx(context.Background(), gs, 12, ApproxOptions{Eps: 0.1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.truncated {
		t.Error("maxStates=8 on an h=10 instance did not report truncation")
	}
	if err := conformance.DivisorChainFamily(gs, res.Frequencies); err != nil {
		t.Error(err)
	}
}

// TestBruteForceCancelledMidSearch closes the cancellation-coverage gap the
// Search countdown test left: bruteForce must also stop at the first Err
// and return no partial best.
func TestBruteForceCancelledMidSearch(t *testing.T) {
	gs := fig2()
	full, err := bruteForce(context.Background(), gs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelledAtLeastOnce := false
	for calls := int64(1); calls <= 32; calls *= 2 {
		res, err := bruteForce(newCountdownCtx(calls), gs, 3, nil)
		if err == nil {
			if res.Evaluated != full.Evaluated || res.Delay != full.Delay {
				t.Fatalf("calls=%d: complete run diverged: %+v vs %+v", calls, res, full)
			}
			continue
		}
		cancelledAtLeastOnce = true
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("calls=%d: err = %v, want context.Canceled", calls, err)
		}
		if res != nil {
			t.Fatalf("calls=%d: truncated brute force returned a result alongside the error", calls)
		}
	}
	if !cancelledAtLeastOnce {
		t.Fatal("countdown context never truncated the brute force — test exercised nothing")
	}
}

// TestBuildApproxProducesProgram: the approximate result feeds the same
// Algorithm 4 placement as Build and survives the spill-accounting oracle.
func TestBuildApproxProducesProgram(t *testing.T) {
	gs := fig2()
	prog, res, err := BuildApprox(context.Background(), gs, 3, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prog == nil || len(res.Frequencies) != gs.Len() {
		t.Fatalf("unexpected build output: prog=%v res=%+v", prog, res)
	}
	if err := conformance.DivisorChainFamily(gs, res.Frequencies); err != nil {
		t.Error(err)
	}
	if _, _, err := BuildApprox(context.Background(), nil, 3, ApproxOptions{}); err == nil {
		t.Error("BuildApprox nil group set accepted")
	}
}

// TestSeedVectorsDedup asserts the duplicate-seed elimination: on instances
// where PAMAD's clamped chain coincides with the clamped sufficient chain,
// Search must not pay a duplicate exact evaluation.
func TestSeedVectorsDedup(t *testing.T) {
	// At ample channels PAMAD picks the sufficient frequencies themselves,
	// so the two seeds coincide.
	gs := fig2()
	caps := factorCaps(gs, 0)
	seeds := seedVectors(gs, gs.MinChannels(), caps)
	if len(seeds) != 1 {
		t.Fatalf("seedVectors returned %d seeds %v, want the coinciding pair deduplicated to 1",
			len(seeds), seeds)
	}
	// Scarce channels drive PAMAD away from the sufficient chain: both
	// seeds must survive.
	seeds = seedVectors(gs, 1, caps)
	if len(seeds) != 2 {
		t.Fatalf("seedVectors returned %d seeds %v, want 2 distinct", len(seeds), seeds)
	}
	if slices.Equal(seeds[0], seeds[1]) {
		t.Fatalf("distinct-seed case returned duplicates: %v", seeds)
	}
}

func TestClampToFamily(t *testing.T) {
	caps := []int{4, 4}
	for _, tc := range []struct {
		in, want delaymodel.Frequencies
	}{
		{delaymodel.Frequencies{8, 2, 1}, delaymodel.Frequencies{8, 2, 1}},  // already a member
		{delaymodel.Frequencies{9, 2, 1}, delaymodel.Frequencies{8, 2, 1}},  // ratio rounds down
		{delaymodel.Frequencies{40, 2, 1}, delaymodel.Frequencies{8, 2, 1}}, // ratio clamps to cap
		{delaymodel.Frequencies{1, 1, 1}, delaymodel.Frequencies{1, 1, 1}},  // floors at 1
		{delaymodel.Frequencies{0, 0, 0}, delaymodel.Frequencies{1, 1, 1}},  // degenerate input
	} {
		if got := clampToFamily(tc.in, caps); !slices.Equal(got, tc.want) {
			t.Errorf("clampToFamily(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
