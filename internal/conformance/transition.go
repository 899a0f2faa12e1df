package conformance

import (
	"fmt"

	"tcsa/internal/core"
)

// TransitionBound is the epoch-handoff oracle: it replays, for every item
// and every integer arrival instant u in [0, L_old) of the final old
// cycle, the wait a client actually experiences under the splice model —
// served in-cycle by the old program if any appearance lies at or after u,
// otherwise carried across the boundary to the new program's phase-0
// appearance — and checks each measured wait against the caller-supplied
// per-item bound (replan.SpliceBounds for a live epoch flip).
//
// The replay is deliberately independent of replan.SpliceBounds' closed
// form: it sweeps the grids directly, builds its own appearance lists,
// and walks every arrival with a two-pointer scan, O(items * L) total.
// oldIDs and newIDs give each item's page identity in the respective
// programs (the replan engine's Delta.RemapPage output); bounds[i] is the
// maximum tolerated wait in slots for item i.
func TransitionBound(old, next *core.Program, oldIDs, newIDs []core.PageID, bounds []float64) error {
	if old == nil || next == nil {
		return fmt.Errorf("%w: nil program", core.ErrInvalidProgram)
	}
	if len(oldIDs) != len(newIDs) || len(oldIDs) != len(bounds) {
		return fmt.Errorf("%w: %d old IDs, %d new IDs, %d bounds",
			core.ErrInvalidProgram, len(oldIDs), len(newIDs), len(bounds))
	}
	items := len(oldIDs)
	L := old.Length()

	// Independent appearance lists: sweep the grids column-major so each
	// item's columns come out sorted, deduplicating same-column repeats.
	oldItem := make(map[core.PageID]int, items)
	newItem := make(map[core.PageID]int, items)
	for i := 0; i < items; i++ {
		if oldIDs[i] != core.None {
			oldItem[oldIDs[i]] = i
		}
		if newIDs[i] != core.None {
			newItem[newIDs[i]] = i
		}
	}
	cols := make([][]int, items)
	for col := 0; col < L; col++ {
		for ch := 0; ch < old.Channels(); ch++ {
			id := old.At(ch, col)
			if id == core.None {
				continue
			}
			if i, ok := oldItem[id]; ok {
				if n := len(cols[i]); n == 0 || cols[i][n-1] != col {
					cols[i] = append(cols[i], col)
				}
			}
		}
	}
	firstNew := make([]int, items)
	for i := range firstNew {
		firstNew[i] = -1
	}
	for col := 0; col < next.Length(); col++ {
		for ch := 0; ch < next.Channels(); ch++ {
			id := next.At(ch, col)
			if id == core.None {
				continue
			}
			if i, ok := newItem[id]; ok && firstNew[i] == -1 {
				firstNew[i] = col
			}
		}
	}

	const eps = 1e-9
	for i := 0; i < items; i++ {
		if newIDs[i] == core.None {
			// Item retired by the transition: no post-boundary service to
			// bound; in-cycle arrivals must still meet the bound.
			if len(cols[i]) == 0 {
				continue
			}
		} else if firstNew[i] == -1 {
			return fmt.Errorf("%w: item %d (page %d) never broadcast by the next program",
				core.ErrInvalidProgram, i, newIDs[i])
		}
		k := 0
		for u := 0; u < L; u++ {
			for k < len(cols[i]) && cols[i][k] < u {
				k++
			}
			var wait float64
			if k < len(cols[i]) {
				wait = float64(cols[i][k] - u)
			} else if newIDs[i] == core.None {
				break // retired and past its last old appearance: never served
			} else {
				wait = float64(L-u) + float64(firstNew[i])
			}
			if wait > bounds[i]+eps {
				return fmt.Errorf("%w: item %d arriving at slot %d waits %.3f slots > bound %.3f",
					core.ErrInvalidProgram, i, u, wait, bounds[i])
			}
		}
	}
	return nil
}
