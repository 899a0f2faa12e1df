package opt

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
)

func fig2() *core.GroupSet {
	return core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}})
}

func TestSearchFigure2(t *testing.T) {
	res, err := Search(context.Background(), fig2(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// PAMAD finds S=(4,2,1) with D'=1/24 on this instance; OPT must not be
	// worse, and on this instance (4,2,1) is in fact optimal in the family.
	if res.Delay > 1.0/24.0+1e-12 {
		t.Errorf("OPT delay %f worse than PAMAD's 1/24 (S=%v)", res.Delay, res.Frequencies)
	}
	if res.Evaluated == 0 {
		t.Error("Evaluated = 0")
	}
}

func TestSearchErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Search(ctx, nil, 3, Options{}); err == nil {
		t.Error("nil group set accepted")
	}
	if _, err := Search(ctx, fig2(), 0, Options{}); err == nil {
		t.Error("0 channels accepted")
	}
	if _, err := bruteForce(ctx, nil, 3, nil); err == nil {
		t.Error("BruteForce nil group set accepted")
	}
	if _, err := bruteForce(ctx, fig2(), 0, nil); err == nil {
		t.Error("BruteForce 0 channels accepted")
	}
}

func TestSearchSingleGroup(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 10}})
	res, err := Search(context.Background(), gs, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequencies) != 1 || res.Frequencies[0] != 1 {
		t.Errorf("Frequencies = %v, want [1]", res.Frequencies)
	}
}

// TestSearchNeverWorseThanPAMAD: OPT scans a superset of PAMAD's greedy
// trajectory, so its delay can never exceed PAMAD's (the paper's Figure 5
// shows PAMAD ~ OPT; this is the one-sided part of that claim).
func TestSearchNeverWorseThanPAMAD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		gs := randomGroupSet(rng, 4)
		min := gs.MinChannels()
		if min < 2 {
			continue
		}
		nReal := 1 + rng.Intn(min-1)
		sres, err := Search(ctx, gs, nReal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps, _, err := pamad.Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		pd := delaymodel.GroupDelay(gs, ps, nReal)
		if sres.Delay > pd+1e-12 {
			t.Errorf("instance %v N=%d: OPT %f > PAMAD %f", gs, nReal, sres.Delay, pd)
		}
	}
}

// TestPAMADNearOptimal quantifies the paper's headline claim on random
// instances: PAMAD's analytic delay is within a small factor of OPT's.
func TestPAMADNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	var worstRatio float64 = 1
	for trial := 0; trial < 60; trial++ {
		gs := randomGroupSet(rng, 4)
		min := gs.MinChannels()
		if min < 2 {
			continue
		}
		nReal := 1 + rng.Intn(min-1)
		sres, err := Search(ctx, gs, nReal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ps, _, err := pamad.Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		pd := delaymodel.GroupDelay(gs, ps, nReal)
		if sres.Delay == 0 {
			if pd > 0.5 {
				t.Errorf("instance %v N=%d: OPT 0 but PAMAD %f", gs, nReal, pd)
			}
			continue
		}
		if ratio := pd / sres.Delay; ratio > worstRatio && pd-sres.Delay > 0.5 {
			worstRatio = ratio
		}
	}
	// Small adversarial instances can tie-break badly; the paper's
	// "almost overlaps" claim is asserted tightly on its own workloads in
	// internal/experiments. Here we bound the damage on arbitrary inputs.
	if worstRatio > 4.0 {
		t.Errorf("worst PAMAD/OPT ratio = %.3f, want <= 4 on random instances", worstRatio)
	}
	t.Logf("worst PAMAD/OPT analytic-delay ratio over random instances: %.4f", worstRatio)
}

// TestBruteForceBoundsChainFamily: on small instances, the best
// non-increasing vector is at most marginally better than the best
// divisor-chain vector, justifying the family restriction.
func TestBruteForceBoundsChainFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		gs := randomGroupSet(rng, 3)
		min := gs.MinChannels()
		if min < 2 {
			continue
		}
		nReal := 1 + rng.Intn(min-1)
		chain, err := Search(ctx, gs, nReal, Options{})
		if err != nil {
			t.Fatal(err)
		}
		brute, err := bruteForce(ctx, gs, nReal, nil)
		if err != nil {
			t.Fatal(err)
		}
		if chain.Delay < brute.Delay-1e-12 {
			t.Errorf("instance %v N=%d: chain %f beat brute force %f — brute force search space too small",
				gs, nReal, chain.Delay, brute.Delay)
		}
		if brute.Delay > 0 && chain.Delay/brute.Delay > 1.5 {
			t.Errorf("instance %v N=%d: chain family %f much worse than unrestricted %f",
				gs, nReal, chain.Delay, brute.Delay)
		}
	}
}

func TestBruteForceRespectsMaxS(t *testing.T) {
	gs := fig2()
	res, err := bruteForce(context.Background(), gs, 3, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Frequencies {
		if s != 1 {
			t.Errorf("S_%d = %d, want 1 under maxS=1", i+1, s)
		}
	}
}

func TestSearchContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A cancelled context must either return promptly with an error or with
	// a valid partial result; it must not hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Search(ctx, fig2(), 3, Options{Parallelism: 1})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Search did not return after context cancellation")
	}
}

func TestBruteForceContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bruteForce(ctx, fig2(), 3, nil); err == nil {
		t.Error("BruteForce ignored cancelled context")
	}
}

func TestBuildProducesProgram(t *testing.T) {
	gs := fig2()
	prog, res, err := Build(context.Background(), gs, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build discards the placement stats, so re-place the winning
	// frequencies (the placement is deterministic) to run the full
	// conformance spill-accounting oracle against the same program.
	prog2, stats, err := pamad.PlaceEvenly(gs, res.Frequencies, 3)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Filled() != prog2.Filled() {
		t.Errorf("Build filled %d != PlaceEvenly filled %d", prog.Filled(), prog2.Filled())
	}
	if err := conformance.SpillAccounting(prog, res.Frequencies,
		conformance.PlacementCounts(stats)); err != nil {
		t.Error(err)
	}
	if _, _, err := Build(context.Background(), nil, 3, Options{}); err == nil {
		t.Error("Build nil group set accepted")
	}
}

func TestOptionsParallelism(t *testing.T) {
	gs := fig2()
	for _, par := range []int{1, 2, 16} {
		res, err := Search(context.Background(), gs, 2, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		base, err := Search(context.Background(), gs, 2, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay != base.Delay {
			t.Errorf("parallelism %d changed result: %f vs %f", par, res.Delay, base.Delay)
		}
		for i := range base.Frequencies {
			if res.Frequencies[i] != base.Frequencies[i] {
				t.Errorf("parallelism %d changed frequencies: %v vs %v", par, res.Frequencies, base.Frequencies)
				break
			}
		}
	}
}

func randomGroupSet(rng *rand.Rand, maxH int) *core.GroupSet {
	h := 2 + rng.Intn(maxH-1)
	groups := make([]core.Group, h)
	tt := 2 + rng.Intn(3)
	for i := 0; i < h; i++ {
		groups[i] = core.Group{Time: tt, Count: 1 + rng.Intn(25)}
		tt *= 2
	}
	return core.MustGroupSet(groups)
}
