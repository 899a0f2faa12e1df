package opt

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tcsa/internal/core"
)

// TestSearchMatchesExhaustive pins the pruned search bit-for-bit against the
// literal full Cartesian scan on randomized instances: identical
// frequencies, identical delay, identical tie-break outcomes.
func TestSearchMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	for trial := 0; trial < 80; trial++ {
		gs := randomGroupSet(rng, 4)
		nReal := 1 + rng.Intn(gs.MinChannels())
		for _, par := range []int{1, 4} {
			pruned, err := Search(ctx, gs, nReal, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("pruned Search(%v, %d): %v", gs, nReal, err)
			}
			full, err := Search(ctx, gs, nReal, Options{Parallelism: par, Exhaustive: true})
			if err != nil {
				t.Fatalf("exhaustive Search(%v, %d): %v", gs, nReal, err)
			}
			if pruned.Delay != full.Delay {
				t.Fatalf("instance %v N=%d par=%d: pruned delay %v != exhaustive %v",
					gs, nReal, par, pruned.Delay, full.Delay)
			}
			for i := range full.Frequencies {
				if pruned.Frequencies[i] != full.Frequencies[i] {
					t.Fatalf("instance %v N=%d par=%d: pruned %v != exhaustive %v (tie-break drift)",
						gs, nReal, par, pruned.Frequencies, full.Frequencies)
				}
			}
			// The pruned search scores at most the exhaustive leaf count
			// plus its two incumbent seeds (visible on tiny instances).
			if pruned.Evaluated > full.Evaluated+2 {
				t.Fatalf("instance %v N=%d: pruned evaluated %d > exhaustive %d + seeds",
					gs, nReal, pruned.Evaluated, full.Evaluated)
			}
		}
	}
}

// TestSearchEvaluatedReduction asserts the acceptance criterion on the
// paper's Figure 5 configuration (h=8, t=4..512, scarce channels): the
// branch-and-bound search scores at least 10x fewer candidates than the
// exhaustive scan while returning the identical result. Parallelism 1 makes
// Evaluated deterministic.
func TestSearchEvaluatedReduction(t *testing.T) {
	gs := paperUniform(125, 8)
	ctx := context.Background()
	for _, nReal := range []int{10, 20, 40} {
		pruned, err := Search(ctx, gs, nReal, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Search(ctx, gs, nReal, Options{Parallelism: 1, Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Delay != full.Delay {
			t.Fatalf("N=%d: pruned delay %v != exhaustive %v", nReal, pruned.Delay, full.Delay)
		}
		for i := range full.Frequencies {
			if pruned.Frequencies[i] != full.Frequencies[i] {
				t.Fatalf("N=%d: pruned %v != exhaustive %v", nReal, pruned.Frequencies, full.Frequencies)
			}
		}
		if full.Evaluated < 10*pruned.Evaluated {
			t.Errorf("N=%d: exhaustive %d < 10x pruned %d (%.1fx reduction)",
				nReal, full.Evaluated, pruned.Evaluated, float64(full.Evaluated)/float64(pruned.Evaluated))
		}
		t.Logf("N=%d: exhaustive %d, pruned %d (%.0fx)", nReal, full.Evaluated, pruned.Evaluated,
			float64(full.Evaluated)/float64(pruned.Evaluated))
	}
}

// countdownCtx is a context whose Err becomes (and stays) context.Canceled
// after a fixed number of Err calls, making mid-search cancellation
// deterministic without timing games.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSearchCancelledMidSearch: a context that expires partway through the
// claim loop must surface the cancellation as an error — a truncated search
// result must never be mistaken for a complete one. (This is the regression
// test for the old behaviour of silently returning the partial best.)
func TestSearchCancelledMidSearch(t *testing.T) {
	gs := paperUniform(5, 8)
	full, err := Search(context.Background(), gs, 10, Options{Parallelism: 1, Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	cancelledAtLeastOnce := false
	for calls := int64(1); calls <= 8; calls++ {
		res, err := Search(newCountdownCtx(calls), gs, 10, Options{Parallelism: 1, Exhaustive: true})
		if err == nil {
			// The countdown outlived the whole search: must be complete and
			// bit-identical to the unrestricted run.
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
			t.Fatalf("calls=%d: truncated search returned a result alongside the error", calls)
		}
	}
	if !cancelledAtLeastOnce {
		t.Fatal("countdown context never truncated the search — test exercised nothing")
	}
}

// TestSearchPreCancelled: an already-cancelled context errors immediately.
func TestSearchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Search(ctx, fig2(), 3, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-cancelled search returned a result")
	}
}

// TestSearchWorkStealingRace hammers the shared incumbent and claim counter
// with many workers on a wide instance; run under -race this is the data
// race gate for the work-stealing paths, and the result must still match
// the serial scan bit for bit.
func TestSearchWorkStealingRace(t *testing.T) {
	gs := paperUniform(25, 8)
	ctx := context.Background()
	serial, err := Search(ctx, gs, 15, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, par := range []int{2, 8, 32} {
		res, err := Search(ctx, gs, 15, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Delay != serial.Delay {
			t.Errorf("parallelism %d: delay %v != serial %v", par, res.Delay, serial.Delay)
		}
		for i := range serial.Frequencies {
			if res.Frequencies[i] != serial.Frequencies[i] {
				t.Errorf("parallelism %d: frequencies %v != serial %v", par, res.Frequencies, serial.Frequencies)
				break
			}
		}
	}
	t.Logf("parallel sweeps in %v", time.Since(start))
}

// paperUniform is the paper's uniform workload shape widened to h groups:
// t=4·2^i, per pages each.
func paperUniform(per, h int) *core.GroupSet {
	groups := make([]core.Group, h)
	tt := 4
	for i := range groups {
		groups[i] = core.Group{Time: tt, Count: per}
		tt *= 2
	}
	return core.MustGroupSet(groups)
}
