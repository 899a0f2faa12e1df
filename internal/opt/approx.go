package opt

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
)

const (
	// defaultEps is the approximation slack used when ApproxOptions.Eps is
	// zero.
	defaultEps = 0.1
	// minEps is the smallest accepted slack. The exact regime scans up to
	// exactLimit(ε) = 16/ε² members in memory, so a smaller ε would
	// materialise families of 10⁹ members; at 0.01 the scan stops at
	// 160,000.
	minEps = 0.01
	// defaultMaxStates bounds the DP frontier per stage. It is a memory
	// safety valve, not part of the ε-grid accounting: when it binds,
	// approxStats.truncated reports so.
	defaultMaxStates = 1 << 16
	// maxChainValue caps any single chain frequency. Chains beyond it
	// cannot win — the zero-delay sufficient vector already closes every
	// gate at far smaller frequencies — and the cap keeps F = Σ S_i·P_i
	// safely inside int64 on frontier instances.
	maxChainValue = 1 << 31
)

// ApproxOptions tunes the approximate frequency search.
type ApproxOptions struct {
	// Eps is the approximation slack ε ≥ 0.01: Approx targets an analytic
	// delay within (1+ε) of the best family member Search would return.
	// 0 means 0.1.
	Eps float64
	// Parallelism bounds concurrent scoring workers; 0 means GOMAXPROCS.
	// Unlike Search's Evaluated, Approx's result is bit-identical at any
	// parallelism including the evaluation count.
	//lint:ignore testonly tests pin one worker to show the result is worker-count independent
	Parallelism int
}

// approxStats are the grid DP's diagnostics.
type approxStats struct {
	states    int64 // DP states expanded across all stages
	exact     bool  // family ≤ exactLimit(ε): full scan, no merging, result is the family optimum
	truncated bool  // maxStates bound at least one stage (approximation not purely grid-driven)
}

// grid derives the quantization ratio δ from ε for an h-group instance:
// the largest δ with (1+δ)^(2h) ≤ 1+ε, so one (1+δ) rounding per chain
// position on both the frequency and the total axis compounds to at most
// (1+ε) across the whole vector.
func grid(eps float64, h int) float64 {
	if h < 1 {
		h = 1
	}
	return math.Pow(1+eps, 1/float64(2*h)) - 1
}

// exactLimit is the family size up to which Approx scans every member
// instead of merging grid states. Scaling with 1/ε² keeps the exact regime
// aligned with the grid's resolution: asking for a tighter guarantee widens
// the range solved outright.
func exactLimit(eps float64) float64 {
	lim := 16 / (eps * eps)
	if lim < 4096 {
		return 4096
	}
	return lim
}

// state is one partial suffix chain during the DP: s[idx..h-1] fixed,
// f = Σ_{j≥idx} s_j·P_j.
type state struct {
	s     delaymodel.Frequencies
	f     int
	bound float64 // admissible completion lower bound at this stage
}

// Approx is the (1+ε) counterpart of Search for the large-h frontier where
// branch-and-bound is infeasible. It trades exactness for a tunable slack
// ε, in the style of Kenyon–Schabanel–Young's polynomial-time
// approximation scheme for data broadcast. Candidate per-group frequencies
// are quantized onto a geometric (1+δ) grid with δ derived from ε (grid),
// and a suffix-first dynamic program keeps only one representative chain
// per structurally distinct (frequency bucket, transmission-total bucket)
// signature per stage — O(polylog/δ²) states instead of ∏caps leaves.
// Representatives are ranked by the admissible completion lower bound
// Search prunes with (delaymodel.SuffixDelayTotal at the minimum reachable
// total), surviving leaves and Search's own seeds are re-scored with the
// exact evaluator, and the winner is chosen under Search's tie-break
// (betterResult).
//
// Two properties keep the result honest:
//
//   - Every candidate is a divisor-chain family member by construction
//     (states multiply repetition factors, never frequencies, and the seeds
//     are clamped into the family), so the result is always buildable by
//     the same Algorithm 4 placement Search feeds.
//   - Instances whose family has at most exactLimit(ε) members are scanned
//     outright with no state merging — an approximation scheme may always
//     solve small instances exactly — so on everything Search can finish
//     the two return identical vectors, and the grid machinery only
//     engages on the large-h frontier it exists for.
//
// Work is sharded across workers only in the final exact-scoring pass,
// over an immutable, lexicographically deduplicated candidate list, and
// candidates merge under a total order; the result (and Evaluated) is
// therefore bit-identical at any parallelism. Like Search, a cancelled
// context returns the context error.
func Approx(ctx context.Context, gs *core.GroupSet, nReal int, opts ApproxOptions) (*Result, error) {
	res, _, err := approx(ctx, gs, nReal, opts, defaultMaxStates)
	return res, err
}

// approx is Approx with the DP frontier cap explicit and the diagnostics
// returned.
func approx(ctx context.Context, gs *core.GroupSet, nReal int, opts ApproxOptions, maxStates int) (*Result, approxStats, error) {
	eps := opts.Eps
	if eps == 0 {
		eps = defaultEps
	}
	if !(eps >= minEps) || math.IsInf(eps, 1) {
		return nil, approxStats{}, fmt.Errorf("opt: eps %v outside [%v, +Inf)", opts.Eps, minEps)
	}
	if res, err := trivial(gs, nReal); res != nil || err != nil {
		return res, approxStats{exact: true}, err
	}
	h := gs.Len()
	caps := factorCaps(gs)
	delta := grid(eps, h)
	stats := approxStats{exact: FamilySize(gs) <= exactLimit(eps)}

	counts := make([]int, h)
	pagesBefore := make([]int, h)
	sum := 0
	for i := 0; i < h; i++ {
		counts[i] = gs.Group(i).Count
		pagesBefore[i] = sum
		sum += counts[i]
	}

	// Suffix-first DP: stage idx extends every kept chain with a factor for
	// position idx-1, then (approximate mode only) collapses the frontier
	// onto the (frequency bucket, total bucket) grid.
	root := state{s: make(delaymodel.Frequencies, h), f: counts[h-1]}
	root.s[h-1] = 1
	states := []state{root}
	for idx := h - 1; idx >= 1; idx-- {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		children := make([]state, 0, len(states)*caps[idx-1])
		for _, st := range states {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			stats.states++
			for r := 1; r <= caps[idx-1]; r++ {
				sNew := r * st.s[idx]
				if sNew > maxChainValue {
					break // larger factors only grow further
				}
				child := state{s: append(delaymodel.Frequencies(nil), st.s...), f: st.f + sNew*counts[idx-1]}
				child.s[idx-1] = sNew
				children = append(children, child)
			}
		}
		if !stats.exact && idx > 1 {
			var truncated bool
			children, truncated = compress(gs, children, idx-1, nReal, pagesBefore, delta, maxStates)
			stats.truncated = stats.truncated || truncated
		}
		states = children
	}

	// Search's seeds join the leaves: the clamped sufficient-frequency
	// chain covers the zero-delay regime (if any vector reaches D' = 0 at
	// this channel budget, it does), and PAMAD's greedy chain is cheap.
	cands := gatherCandidates(states, seedVectors(gs, nReal, caps))
	best, err := scoreCandidates(ctx, gs, nReal, cands, opts.Parallelism)
	return best, stats, err
}

// compress collapses a DP frontier onto the (1+δ) grid at stage lvl: states
// sharing both the frequency bucket of s[lvl] and the total bucket of F
// merge into the representative with the smallest admissible completion
// lower bound (ties: smaller F, then lexicographically smaller suffix).
// Sorting makes the selection independent of generation order, and a final
// bound-ranked cut enforces maxStates; truncated reports whether that cut
// dropped anything beyond the grid's own merging.
func compress(gs *core.GroupSet, children []state, lvl, nReal int, pagesBefore []int, delta float64, maxStates int) ([]state, bool) {
	logG := math.Log1p(delta)
	type keyed struct {
		state
		kS, kF int
	}
	ks := make([]keyed, len(children))
	for i, st := range children {
		// fmin: every completion multiplies s[lvl] by factors ≥ 1, so each
		// unassigned group reaches frequency ≥ s[lvl] and any leaf's total
		// is at least this — Search's admissible bound.
		fmin := st.f + st.s[lvl]*pagesBefore[lvl]
		st.bound = delaymodel.SuffixDelayTotal(gs, st.s, lvl, nReal, fmin)
		ks[i] = keyed{
			state: st,
			kS:    int(math.Log(float64(st.s[lvl])) / logG),
			kF:    int(math.Log(float64(st.f)) / logG),
		}
	}
	// byBound orders states by bound, then F, then the suffix s[lvl:].
	byBound := func(a, b *keyed) int {
		if c := cmp.Compare(a.bound, b.bound); c != 0 {
			return c
		}
		if c := cmp.Compare(a.f, b.f); c != 0 {
			return c
		}
		return slices.Compare(a.s[lvl:], b.s[lvl:])
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.kS, b.kS); c != 0 {
			return c
		}
		if c := cmp.Compare(a.kF, b.kF); c != 0 {
			return c
		}
		return byBound(&a, &b)
	})
	kept := slices.CompactFunc(ks, func(a, b keyed) bool { return a.kS == b.kS && a.kF == b.kF })
	truncated := false
	if len(kept) > maxStates {
		slices.SortFunc(kept, func(a, b keyed) int { return byBound(&a, &b) })
		kept = kept[:maxStates]
		truncated = true
	}
	out := make([]state, len(kept))
	for i := range kept {
		out[i] = kept[i].state
	}
	return out, truncated
}

// gatherCandidates assembles the final exact-scoring list: every DP leaf
// and the seeds, sorted and deduplicated so Evaluated is deterministic and
// no vector is scored twice.
func gatherCandidates(leaves []state, seeds []delaymodel.Frequencies) []delaymodel.Frequencies {
	cands := make([]delaymodel.Frequencies, 0, len(leaves)+len(seeds))
	for _, st := range leaves {
		cands = append(cands, st.s)
	}
	cands = append(cands, seeds...)
	slices.SortFunc(cands, slices.Compare)
	return slices.CompactFunc(cands, slices.Equal)
}

// scoreCandidates evaluates every candidate exactly, sharding contiguous
// chunks over workers through an atomic cursor. Each worker folds its
// chunks into a local best; the final fold scans workers in index order,
// but because betterResult is a strict total order over distinct vectors
// the merged minimum is the same regardless of which worker scored what.
func scoreCandidates(ctx context.Context, gs *core.GroupSet, nReal int, cands []delaymodel.Frequencies, parallelism int) (*Result, error) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	const chunk = 256
	var (
		next      atomic.Int64
		cancelled atomic.Bool
		wg        sync.WaitGroup
	)
	bests := make([]Result, workers)
	for w := range bests {
		bests[w].Delay = -1
		wg.Add(1)
		go func(best *Result) {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(cands) {
					return
				}
				for _, s := range cands[lo:min(lo+chunk, len(cands))] {
					if ctx.Err() != nil {
						cancelled.Store(true)
						return
					}
					keepBetter(gs, best, &Result{Frequencies: s, Delay: delaymodel.GroupDelay(gs, s, nReal)})
				}
			}
		}(&bests[w])
	}
	wg.Wait()
	if cancelled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	best := &Result{Delay: -1, Evaluated: int64(len(cands))}
	for i := range bests {
		keepBetter(gs, best, &bests[i])
	}
	if best.Delay < 0 {
		return nil, fmt.Errorf("opt: no candidate evaluated")
	}
	return best, nil
}

// BuildApprox runs Approx and materialises the winning frequencies with the
// same Algorithm 4 placement as Build, so the approximate comparator's
// programs are placement-identical to the exact ones.
func BuildApprox(ctx context.Context, gs *core.GroupSet, nReal int, opts ApproxOptions) (*core.Program, *Result, error) {
	res, err := Approx(ctx, gs, nReal, opts)
	if err != nil {
		return nil, nil, err
	}
	prog, _, err := pamad.PlaceEvenly(gs, res.Frequencies, nReal)
	if err != nil {
		return nil, nil, err
	}
	return prog, res, nil
}
