// Package opt implements the OPT comparator of "Time-Constrained Service
// on Air" (ICDCS 2005), Section 5: an exhaustive search for the broadcast
// frequency assignment with the minimum analytic average group delay.
//
// PAMAD explores the divisor-chain frequency family S_i = prod_{j>=i} r_j
// greedily, fixing each r one stage at a time. Search explores the same
// family exhaustively — the full Cartesian product of repetition factors —
// so the measured PAMAD-vs-OPT gap is exactly the cost of PAMAD's
// greediness. For small instances the package tests additionally
// enumerate every non-increasing frequency vector (a strict superset of
// the divisor-chain family, brute_test.go), bounding how much the family
// restriction itself costs.
//
// The paper notes OPT's "searching time is unacceptably high". This
// implementation keeps the search exact while cutting most of the work:
//
//   - Factors are assigned suffix-first (r_{h-1} down to r_1), so at every
//     node the suffix frequencies S_idx..S_h are final. An admissible
//     branch-and-bound lower bound — the fixed suffix's D' contribution at
//     the minimum total F any completion can reach, which
//     delaymodel.SuffixDelayTotal proves never overestimates — prunes
//     subtrees that cannot beat the shared incumbent.
//   - Leaves are screened in O(1) amortized time with factored gated
//     prefix sums maintained across the innermost r_1 sweep; only leaves
//     whose screening value lands within a strict margin of the incumbent
//     are re-scored with the exact evaluator, so every comparison that
//     decides the result uses exact arithmetic.
//   - Work is distributed by work-stealing over the two outermost factor
//     levels (an atomic claim counter), so workers whose subtrees prune
//     away immediately steal fresh prefixes instead of idling, and a
//     shared atomic incumbent tightens pruning across workers.
//
// Pruning only ever discards candidates that lose to the incumbent under
// the full deterministic tie-break chain, so the result is bit-identical
// to the exhaustive scan at any parallelism; Options.Exhaustive restores
// the literal full scan and the package differential tests pin the two
// against each other. docs/perf.md derives the bound's admissibility and
// reports the measured evaluated-node reduction.
//
// Approx (approx.go) searches the same family for the large-h frontier
// where branch-and-bound is infeasible: a (1+ε) geometric-grid dynamic
// program sharing Search's factor caps, family projection, seeds and
// tie-break.
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package opt

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
)

// Options tunes the search.
type Options struct {
	// MaxFactor caps each repetition factor r_i. 0 means automatic: twice
	// the group-time ratio t_{i+1}/t_i (the zero-delay factor), at least 4.
	// Raising it widens the searched family at exponential cost.
	MaxFactor int
	// Parallelism bounds concurrent workers; 0 means GOMAXPROCS.
	Parallelism int
	// Exhaustive disables branch-and-bound pruning, leaf screening and
	// incumbent seeding, restoring the literal full Cartesian scan: every
	// family member is scored exactly, so Evaluated equals the product of
	// the factor caps. The differential tests and the pruning ablation in
	// internal/experiments use it as the reference search; results are
	// identical either way, only Evaluated differs.
	Exhaustive bool
}

// Result is the best frequency assignment found.
type Result struct {
	Frequencies delaymodel.Frequencies
	Delay       float64 // analytic D' of Frequencies
	Evaluated   int64   // number of candidate vectors scored exactly
}

// Pruning margins: a subtree (or screened leaf) is discarded only when its
// lower bound exceeds the incumbent by more than this strict margin, so
// float association differences between the factored screening sums and the
// exact evaluator can never discard a candidate that would win or tie.
const (
	pruneRelEps = 1e-9
	pruneAbsEps = 1e-9
)

// incumbent is the shared best-so-far under the first two tie-break keys.
// Frequencies are deliberately omitted: workers keep exact local bests and
// the deterministic merge picks the final winner, so the shared word only
// needs the keys that pruning compares against.
type incumbent struct {
	delay float64
	f     int // TotalSlots of the vector that achieved delay
}

// engine is the state shared by all search workers.
type engine struct {
	gs         *core.GroupSet
	nReal      int
	h          int
	caps       []int
	exhaustive bool

	counts      []int // P_i
	times       []int // t_i
	pagesBefore []int // pagesBefore[i] = sum_{j<i} P_j

	claims int64 // total work-stealing claims
	claimB int64 // second-level width for pair decoding (h >= 4)

	next      atomic.Int64
	inc       atomic.Pointer[incumbent]
	truncated atomic.Bool
}

func newEngine(gs *core.GroupSet, nReal int, caps []int, exhaustive bool) *engine {
	h := gs.Len()
	e := &engine{
		gs:          gs,
		nReal:       nReal,
		h:           h,
		caps:        caps,
		exhaustive:  exhaustive,
		counts:      make([]int, h),
		times:       make([]int, h),
		pagesBefore: make([]int, h),
	}
	sum := 0
	for i := 0; i < h; i++ {
		g := gs.Group(i)
		e.counts[i] = g.Count
		e.times[i] = g.Time
		e.pagesBefore[i] = sum
		sum += g.Count
	}
	switch {
	case h == 2:
		e.claims = int64(caps[0])
	case h == 3:
		e.claims = int64(caps[1])
	default:
		e.claimB = int64(caps[h-3])
		e.claims = int64(caps[h-2]) * e.claimB
	}
	return e
}

// offer publishes an exactly-evaluated candidate's (delay, F) keys to the
// shared incumbent if they improve it.
func (e *engine) offer(delay float64, f int) {
	for {
		cur := e.inc.Load()
		if cur != nil && (cur.delay < delay || (cur.delay == delay && cur.f <= f)) {
			return
		}
		if e.inc.CompareAndSwap(cur, &incumbent{delay: delay, f: f}) {
			return
		}
	}
}

// worker is one search goroutine's private state; everything it touches per
// node is preallocated, so the steady-state search allocates only on new
// local bests.
type worker struct {
	e         *engine
	s         delaymodel.Frequencies // s[h-1] = 1; filled suffix-first
	best      Result                 // Delay < 0 means empty
	evaluated int64
	gateThr   []int // leaf-loop gate thresholds, sorted ascending
	gateIdx   []int // group index per threshold
}

func newWorker(e *engine) *worker {
	w := &worker{
		e:       e,
		s:       make(delaymodel.Frequencies, e.h),
		best:    Result{Delay: -1},
		gateThr: make([]int, 0, e.h),
		gateIdx: make([]int, 0, e.h),
	}
	w.s[e.h-1] = 1
	return w
}

func (w *worker) run(ctx context.Context) {
	e := w.e
	for {
		if ctx.Err() != nil {
			e.truncated.Store(true)
			return
		}
		id := e.next.Add(1) - 1
		if id >= e.claims {
			return
		}
		w.claim(id)
	}
}

// claim expands one stolen prefix: a single leaf for h == 2, a one-level
// prefix for h == 3, and a two-level prefix (r_{h-1}, r_{h-2}) otherwise.
func (w *worker) claim(id int64) {
	e, h, s := w.e, w.e.h, w.s
	switch {
	case h == 2:
		s[0] = int(id) + 1
		w.exact(s[0]*e.counts[0] + e.counts[1])
	case h == 3:
		s[1] = int(id) + 1
		f := e.counts[2] + s[1]*e.counts[1]
		if !e.exhaustive {
			if skip, _ := w.pruneAt(1, f); skip {
				return
			}
		}
		w.leafLoop(f)
	default:
		a := int(id/e.claimB) + 1
		b := int(id%e.claimB) + 1
		s[h-2] = a
		f1 := e.counts[h-1] + a*e.counts[h-2]
		if !e.exhaustive {
			if skip, _ := w.pruneAt(h-2, f1); skip {
				return
			}
		}
		s[h-3] = b * a
		f2 := f1 + s[h-3]*e.counts[h-3]
		if !e.exhaustive {
			if skip, _ := w.pruneAt(h-3, f2); skip {
				return
			}
		}
		w.descend(h-3, f2)
	}
}

// descend enumerates r[idx-1] with the suffix s[idx..h-1] (transmission
// total fSuffix) already fixed.
func (w *worker) descend(idx, fSuffix int) {
	if idx == 1 {
		w.leafLoop(fSuffix)
		return
	}
	e := w.e
	for v := 1; v <= e.caps[idx-1]; v++ {
		w.s[idx-1] = v * w.s[idx]
		f := fSuffix + w.s[idx-1]*e.counts[idx-1]
		if !e.exhaustive {
			skip, stop := w.pruneAt(idx-1, f)
			if stop {
				return
			}
			if skip {
				continue
			}
		}
		w.descend(idx-1, f)
	}
}

// pruneAt decides whether the subtree rooted at the fixed suffix
// s[idx..h-1] (transmission total fSuffix) can be discarded.
//
// Every completion multiplies the suffix by factors >= 1, so each of the
// idx unassigned groups gets frequency >= s[idx] and the total F of any
// leaf is at least fmin = fSuffix + s[idx]*pagesBefore[idx]. The bound
// charges the unassigned prefix nothing (its groups may reach zero delay)
// and the fixed suffix its D' contribution at fmin — admissible because the
// suffix contribution is non-decreasing in F (delaymodel.SuffixDelayTotal).
// stop reports that every later sibling value at this level prunes too:
// fmin grows strictly with v, so once a zero-delay incumbent wins the
// F tie-break exactly, larger v cannot recover.
func (w *worker) pruneAt(idx, fSuffix int) (skip, stop bool) {
	e := w.e
	inc := e.inc.Load()
	if inc == nil {
		return false, false
	}
	fmin := fSuffix + w.s[idx]*e.pagesBefore[idx]
	if inc.delay == 0 && fmin > inc.f {
		// Exact integer prune: delay cannot drop below zero, so every leaf
		// here at best ties the incumbent's delay and then loses the
		// fewer-transmissions tie-break outright.
		return true, true
	}
	lb := delaymodel.SuffixDelayTotal(e.gs, w.s, idx, e.nReal, fmin)
	if lb > inc.delay*(1+pruneRelEps)+pruneAbsEps {
		return true, false
	}
	return false, false
}

// leafLoop sweeps the innermost factor r_1 with the suffix s[1..h-1]
// (transmission total base) fixed. Each leaf is screened in O(1) amortized
// time: the suffix groups' D' contributions are factored into three running
// sums (A = sum P_j/S_j, B = sum P_j t_j, C = sum S_j P_j t_j^2) over the
// groups whose delay gate gap_j > t_j is open — F grows monotonically with
// r_1 while the suffix frequencies stay fixed, so gates only open as the
// sweep advances and each group is folded in exactly once. Group 1's own
// gate moves the other way (its frequency grows with F) and is evaluated
// directly. Only leaves whose screening value lands within the strict
// pruning margin of the incumbent are re-scored exactly.
func (w *worker) leafLoop(base int) {
	e, h, s := w.e, w.e.h, w.s
	step := s[1] * e.counts[0]

	// Gate j opens exactly when F > nReal*S_j*t_j (an integer threshold).
	thr, idx := w.gateThr[:0], w.gateIdx[:0]
	for j := 1; j < h; j++ {
		t := e.nReal * s[j] * e.times[j]
		k := len(thr)
		thr, idx = append(thr, 0), append(idx, 0)
		for k > 0 && thr[k-1] > t {
			thr[k], idx[k] = thr[k-1], idx[k-1]
			k--
		}
		thr[k], idx[k] = t, j
	}
	w.gateThr, w.gateIdx = thr, idx

	var sumA, sumB, sumC float64
	ptr := 0
	n := float64(e.nReal)
	t0 := float64(e.times[0])
	p0 := float64(e.counts[0])
	for v := 1; v <= e.caps[0]; v++ {
		f := base + v*step
		if !e.exhaustive {
			if inc := e.inc.Load(); inc != nil && inc.delay == 0 && f > inc.f {
				// F grows strictly with v: every remaining leaf loses the
				// zero-delay incumbent's F tie-break.
				return
			}
		}
		for ptr < len(thr) && thr[ptr] < f {
			j := idx[ptr]
			sj, pj, tj := float64(s[j]), float64(e.counts[j]), float64(e.times[j])
			sumA += pj / sj
			sumB += pj * tj
			sumC += sj * pj * tj * tj
			ptr++
		}
		s[0] = v * s[1]
		if e.exhaustive {
			w.exact(f)
			continue
		}
		ff := float64(f)
		tM := float64(core.CeilDiv(f, e.nReal))
		fast := ((ff*tM/n)*sumA - (ff/n+tM)*sumB + sumC) / (2 * ff)
		s0 := float64(s[0])
		if gap0 := ff / (n * s0); gap0 > t0 {
			fast += (s0 * p0 / ff) * (gap0 - t0) * (tM/s0 - t0) / 2
		}
		inc := e.inc.Load()
		if inc == nil || fast <= inc.delay*(1+pruneRelEps)+pruneAbsEps {
			w.exact(f)
		}
	}
}

// exact scores the current vector with the exact evaluator, folds it into
// the worker-local best under the deterministic tie-break, and publishes
// the keys to the shared incumbent. Every value that can decide the final
// result flows through here, which is what keeps the pruned search
// bit-identical to the exhaustive one.
func (w *worker) exact(f int) {
	e := w.e
	d := delaymodel.GroupDelay(e.gs, w.s, e.nReal)
	w.evaluated++
	cand := Result{Frequencies: w.s, Delay: d}
	if w.best.Delay < 0 || betterResult(e.gs, &cand, &w.best) {
		w.best.Frequencies = append(w.best.Frequencies[:0], w.s...)
		w.best.Delay = d
	}
	if !e.exhaustive {
		e.offer(d, f)
	}
}

// Search scans the divisor-chain frequency family for the vector minimising
// the analytic average group delay D' at nReal channels. Ties are broken
// toward fewer total transmissions (shorter major cycle), then
// lexicographically, so the result is deterministic regardless of worker
// interleaving — and, because pruning only discards candidates that lose
// under that same order, independent of Options.Exhaustive. A cancelled
// context returns the context error: a truncated search is never passed off
// as a complete one. Result.Evaluated counts exact evaluations and is only
// deterministic at Parallelism 1 (incumbent timing varies across workers).
func Search(ctx context.Context, gs *core.GroupSet, nReal int, opts Options) (*Result, error) {
	if res, err := trivial(gs, nReal); res != nil || err != nil {
		return res, err
	}
	caps := factorCaps(gs, opts.MaxFactor)
	e := newEngine(gs, nReal, caps, opts.Exhaustive)

	// Seed the incumbent with cheap family members so pruning bites from
	// the first node: PAMAD's greedy chain and the sufficient-channel
	// chain, both clamped onto the searched family. Seeds are scored with
	// the same exact evaluator and merged like any worker result, so they
	// can only tighten pruning, never change the winner.
	var seeds []Result
	if !opts.Exhaustive {
		for _, sv := range seedVectors(gs, nReal, caps) {
			d := delaymodel.GroupDelay(gs, sv, nReal)
			seeds = append(seeds, Result{Frequencies: sv, Delay: d})
			e.offer(d, sv.TotalSlots(gs))
		}
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(workers) > e.claims {
		workers = int(e.claims)
	}
	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = newWorker(e)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ctx)
		}(ws[i])
	}
	wg.Wait()

	if e.truncated.Load() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}

	best := &Result{Delay: -1}
	for i := range seeds {
		keepBetter(gs, best, &seeds[i])
		best.Evaluated++
	}
	for _, w := range ws {
		keepBetter(gs, best, &w.best)
		best.Evaluated += w.evaluated
	}
	if best.Delay < 0 {
		return nil, fmt.Errorf("opt: no candidate evaluated (caps=%v)", caps)
	}
	return best, nil
}

// seedVectors returns cheap candidate vectors inside the searched family,
// deduplicated: on small instances PAMAD's greedy chain and the clamped
// sufficient-frequency chain often coincide, and scoring the same vector
// twice would only inflate Evaluated.
func seedVectors(gs *core.GroupSet, nReal int, caps []int) []delaymodel.Frequencies {
	var seeds []delaymodel.Frequencies
	if ps, _, err := pamad.Frequencies(gs, nReal); err == nil {
		seeds = append(seeds, clampToFamily(ps, caps))
	}
	suf := clampToFamily(delaymodel.SufficientFrequencies(gs), caps)
	if slices.ContainsFunc(seeds, func(s delaymodel.Frequencies) bool { return slices.Equal(s, suf) }) {
		return seeds
	}
	return append(seeds, suf)
}

// clampToFamily projects a divisor-chain vector onto the searched family:
// each repetition factor r_i = S_i/S_{i+1} is clamped to [1, caps[i]] and
// the chain rebuilt, so the seed is always a member the exhaustive scan
// itself visits (pruning against an out-of-family incumbent could
// otherwise discard the entire family).
func clampToFamily(s delaymodel.Frequencies, caps []int) delaymodel.Frequencies {
	h := len(s)
	out := make(delaymodel.Frequencies, h)
	out[h-1] = 1
	for i := h - 2; i >= 0; i-- {
		r := 1
		if s[i+1] > 0 {
			r = s[i] / s[i+1]
		}
		if r < 1 {
			r = 1
		}
		if r > caps[i] {
			r = caps[i]
		}
		out[i] = r * out[i+1]
	}
	return out
}

// FamilySize returns the number of divisor-chain members Search and Approx
// explore under the automatic factor caps — the leaf count ∏ caps[i] an
// exact enumeration must visit. The count is a float64 because frontier
// instances overflow int64 (h=20 at cap 4 is already ~2.7e11); callers use
// it as the Search-infeasibility witness, not for exact arithmetic.
func FamilySize(gs *core.GroupSet) float64 {
	family := 1.0
	for _, c := range factorCaps(gs, 0) {
		family *= float64(c)
	}
	return family
}

// factorCaps derives the per-position candidate cap for r_i.
func factorCaps(gs *core.GroupSet, maxFactor int) []int {
	h := gs.Len()
	caps := make([]int, h-1)
	for i := range caps {
		ratio := gs.Group(i+1).Time / gs.Group(i).Time
		c := 2 * ratio
		if c < 4 {
			c = 4
		}
		if maxFactor > 0 && c > maxFactor {
			c = maxFactor
		}
		if c < 1 {
			c = 1
		}
		caps[i] = c
	}
	return caps
}

// betterResult reports whether a beats b: strictly lower delay; on ties,
// fewer total transmissions; then lexicographically smaller frequencies.
func betterResult(gs *core.GroupSet, a, b *Result) bool {
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	fa, fb := a.Frequencies.TotalSlots(gs), b.Frequencies.TotalSlots(gs)
	if fa != fb {
		return fa < fb
	}
	return slices.Compare(a.Frequencies, b.Frequencies) < 0
}

// keepBetter folds cand into best under betterResult; a negative Delay
// marks either as empty. Only the vector and delay move, so the caller
// keeps ownership of best.Evaluated.
func keepBetter(gs *core.GroupSet, best, cand *Result) {
	if cand.Delay >= 0 && (best.Delay < 0 || betterResult(gs, cand, best)) {
		best.Frequencies, best.Delay = cand.Frequencies, cand.Delay
	}
}

// trivial answers the inputs both searches share without searching: an
// error for a nil set or fewer than one channel, and the family's only
// member for a single group. It returns (nil, nil) for every other input.
func trivial(gs *core.GroupSet, nReal int) (*Result, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	if nReal < 1 {
		return nil, fmt.Errorf("%w: %d channels", core.ErrInsufficientChannels, nReal)
	}
	if gs.Len() > 1 {
		return nil, nil
	}
	one := delaymodel.Frequencies{1}
	return &Result{Frequencies: one, Delay: delaymodel.GroupDelay(gs, one, nReal), Evaluated: 1}, nil
}

// Build runs Search and materialises the winning frequencies into a
// broadcast program using the same Algorithm 4 placement as PAMAD and m-PB,
// keeping the three comparators' placement identical as in the paper.
func Build(ctx context.Context, gs *core.GroupSet, nReal int, opts Options) (*core.Program, *Result, error) {
	res, err := Search(ctx, gs, nReal, opts)
	if err != nil {
		return nil, nil, err
	}
	prog, _, err := pamad.PlaceEvenly(gs, res.Frequencies, nReal)
	if err != nil {
		return nil, nil, err
	}
	return prog, res, nil
}
