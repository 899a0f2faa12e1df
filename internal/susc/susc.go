// Package susc implements the Scheduling Under Sufficient Channels (SUSC)
// algorithm of "Time-Constrained Service on Air" (ICDCS 2005), Section 3.
//
// Given expected-time groups G_1..G_h and at least the Theorem 3.1 minimum
// number of channels N = ceil(sum_i P_i/t_i), SUSC greedily builds a valid
// broadcast program of cycle length t_h:
//
//  1. pages are assigned in ascending expected-time order;
//  2. each page takes the first available slot (x, y) with y < t_i scanned
//     channel-major (Algorithm 2, GetAvailableSlot);
//  3. from its first slot the page repeats every t_i slots on the same
//     channel (Theorem 3.3), t_h/t_i appearances per cycle.
//
// Build realises that greedy fill without the per-page channel-major rescan
// of the literal Algorithm 2 (kept in the tests as the oracle): because every
// earlier group's period divides the current one's, the occupied cells of a
// channel always form whole residue classes modulo the current period, so a
// channel the scan moves past is completely full and the scan never needs to
// revisit it. A monotone (channel, slot) cursor therefore reproduces
// Algorithm 2's placements exactly in O(cells) total time — see the package
// tests and FuzzSUSCEquivalence, which pin the two builders cell for cell.
//
// Theorem 3.2 guarantees a slot always exists when the channel count meets
// the bound; Build converts a violation of that guarantee (impossible for
// valid inputs, by the theorem) into an internal error rather than a panic,
// so the invariant is machine-checked on every run.
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package susc

import (
	"fmt"

	"tcsa/internal/core"
)

// Build produces a valid broadcast program for gs using exactly channels
// broadcast channels and cycle length t_h. It fails with
// core.ErrInsufficientChannels when channels is below the Theorem 3.1
// minimum; pass gs.MinChannels() to use the proven-optimal channel count.
//
// The construction is O(cells) — one grid write per placed repeat plus a
// bounded scan on the at most one partially-filled channel each group
// inherits — and allocates only the program itself, independent of the page
// count (guarded by TestBuildAllocsIndependentOfPages).
func Build(gs *core.GroupSet, channels int) (*core.Program, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	min := gs.MinChannels()
	if channels < min {
		return nil, fmt.Errorf("%w: %d < minimum %d for %v",
			core.ErrInsufficientChannels, channels, min, gs)
	}
	th := gs.MaxTime()
	prog, err := core.NewProgram(gs, channels, th)
	if err != nil {
		return nil, err
	}

	// Cursor invariants, maintained across groups:
	//
	//   x     — the active channel. Channels < x hold no free slot at all:
	//           the scan only leaves a channel when no slot below the current
	//           period t is free, and since every occupied cell belongs to a
	//           full residue class mod t (periods divide along the chain),
	//           "no free slot below t" means "no free slot anywhere".
	//   f     — the first free slot on channel x; every slot before f is
	//           occupied. f never decreases, because placements at slot
	//           y >= f only add cells at y + k*t >= f.
	//   dirty — whether channel x carries pages of an earlier group. On a
	//           clean channel the current group has filled exactly slots
	//           0..f-1 and its repeats land at t_i or beyond, so the next
	//           free slot is f itself and the whole group fill is
	//           closed-form: consecutive slots, no probing. On a dirty
	//           channel earlier groups' residue classes (and this group's
	//           own repeats, once placed off-grid-aligned) interleave, so f
	//           is re-established by probing the grid forward. Only the
	//           single partial channel each group hands to the next is ever
	//           dirty, so probing touches at most h-1 channels, O(t_h)
	//           cells each.
	x, f := 0, 0
	dirty := false
	for i := 0; i < gs.Len(); i++ {
		g := gs.Group(i)
		repeats := th / g.Time
		for j := 0; j < g.Count; j++ {
			for f >= g.Time {
				// No free slot below t_i: by the residue-class argument the
				// channel is completely full, so hand the cursor a fresh one.
				x, f, dirty = x+1, 0, false
				if x >= channels {
					// Unreachable for validated inputs (Theorem 3.2); kept as
					// a defensive check so a future regression fails loudly.
					return nil, fmt.Errorf("%w: no slot for page %d (group %d, t=%d) — Theorem 3.2 violated",
						core.ErrInsufficientChannels, gs.PageAt(i, j), i+1, g.Time)
				}
			}
			if err := prog.PlaceRepeats(x, f, g.Time, repeats, gs.PageAt(i, j)); err != nil {
				return nil, fmt.Errorf("susc: placing page %d: %w", gs.PageAt(i, j), err)
			}
			f++
			if dirty {
				// Occupied residue classes interleave with ours: probe
				// forward to the next free cell. f is monotone per channel,
				// so this costs O(t_h) per dirty channel in total.
				for f < th && prog.At(x, f) != core.None {
					f++
				}
			}
		}
		// The channel this group leaves partial is inherited dirty, and the
		// finished group's own repeats (at y + k*t_i >= t_i >= f) may now
		// occupy the cell at f, so re-establish the first-free invariant.
		if f > 0 && !dirty {
			dirty = true
			for f < th && prog.At(x, f) != core.None {
				f++
			}
		}
	}
	return prog, nil
}

// BuildMinimal is Build with the Theorem 3.1 minimum channel count.
//
//lint:ignore testonly fixture builder shared by the tests of over a dozen packages
func BuildMinimal(gs *core.GroupSet) (*core.Program, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	return Build(gs, gs.MinChannels())
}
