package opt

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
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
		gs := paperUniformH(125, h)
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

// TestApproxParallelismBitIdentical: the acceptance criterion's 1/4/8
// worker sweep — frequencies, delay and Evaluated all pinned.
func TestApproxParallelismBitIdentical(t *testing.T) {
	ctx := context.Background()
	gs := paperUniformH(125, 10)
	base, err := Approx(ctx, gs, 15, ApproxOptions{Eps: 0.1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{4, 8} {
		res, err := Approx(ctx, gs, 15, ApproxOptions{Eps: 0.1, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Delay != base.Delay || res.Evaluated != base.Evaluated {
			t.Errorf("parallelism %d: (delay, evaluated) = (%v, %d), want (%v, %d)",
				par, res.Delay, res.Evaluated, base.Delay, base.Evaluated)
		}
		for i := range base.Frequencies {
			if res.Frequencies[i] != base.Frequencies[i] {
				t.Errorf("parallelism %d: %v != %v", par, res.Frequencies, base.Frequencies)
				break
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
	if _, err := Approx(ctx, fig2(), 3, ApproxOptions{Eps: -1}); err == nil {
		t.Error("negative eps accepted")
	}
}

func TestApproxSingleGroup(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 10}})
	res, err := Approx(context.Background(), gs, 1, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequencies) != 1 || res.Frequencies[0] != 1 {
		t.Errorf("Frequencies = %v, want [1]", res.Frequencies)
	}
}

// TestApproxCancelledMidSearch mirrors Search's countdown-context gate: a
// context expiring partway through must surface as an error, never as a
// silently truncated result.
func TestApproxCancelledMidSearch(t *testing.T) {
	gs := paperUniformH(5, 8)
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
	if equalFrequencies(seeds[0], seeds[1]) {
		t.Fatalf("distinct-seed case returned duplicates: %v", seeds)
	}
}

// paperUniformH is paperUniform widened to h groups.
func paperUniformH(per, h int) *core.GroupSet {
	groups := make([]core.Group, h)
	tt := 4
	for i := range groups {
		groups[i] = core.Group{Time: tt, Count: per}
		tt *= 2
	}
	return core.MustGroupSet(groups)
}
