package replan

import (
	"fmt"

	"tcsa/internal/core"
)

// SpliceBounds returns, per item, a provable worst-case wait (in slots)
// for a client arriving at any integer instant u in [0, L_old) of the
// final old cycle of an epoch flip: the old program runs to its cycle
// boundary, then the next program starts at phase zero. oldIDs[i] and
// newIDs[i] are item i's page identity in each program (Delta.RemapPage
// gives the survivors of an edit).
//
// With the item's distinct old appearance columns c_0 < ... < c_m, the
// worst in-cycle arrival lands one slot after an appearance and waits out
// the largest inter-appearance hole; the worst carried-over arrival lands
// one slot after c_m and pays the rest of the cycle plus the item's
// phase-0 wait on the next program. The bound is exact for integer
// arrivals — conformance.TransitionBound replays every u and checks it —
// and is what the zero-pause epoch flip promises each client: staging an
// edit never costs more than SpliceBounds says.
//
// Only tests call it; it stays exported because the chaos, netcast and
// replan suites all check epoch flips against it.
//
//lint:ignore testonly bound the chaos, netcast and replan tests share
func SpliceBounds(old, next *core.Program, oldIDs, newIDs []core.PageID) ([]float64, error) {
	if old == nil || next == nil {
		return nil, fmt.Errorf("%w: nil program", core.ErrInvalidProgram)
	}
	if len(oldIDs) != len(newIDs) {
		return nil, fmt.Errorf("%w: item universes differ (%d vs %d)",
			core.ErrInvalidProgram, len(oldIDs), len(newIDs))
	}
	oldIx := old.AppearanceIndex()
	newA := core.Analyze(next)
	L := old.Length()
	bounds := make([]float64, len(oldIDs))
	for item := range oldIDs {
		w0 := newA.NextAfter(newIDs[item], 0)
		cols := oldIx.Columns(oldIDs[item])
		if len(cols) == 0 {
			bounds[item] = float64(L) + w0
			continue
		}
		worst := float64(cols[0]) // u = 0 waits for the first appearance
		for k := 1; k < len(cols); k++ {
			if gap := float64(cols[k] - cols[k-1] - 1); gap > worst {
				worst = gap
			}
		}
		if last := int(cols[len(cols)-1]); last < L-1 {
			if tail := float64(L-last-1) + w0; tail > worst {
				worst = tail
			}
		}
		bounds[item] = worst
	}
	return bounds, nil
}
