package pamad

import (
	"fmt"
	"sort"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// placeEvenlyReference is the literal Algorithm 4 placement that PlaceEvenly
// replaced: linear window scans, a cyclic spill scan, and a channel scan per
// appearance. It is retained verbatim as the differential oracle —
// TestPlaceEvenlyMatchesReference and FuzzPAMADPlacement pin PlaceEvenly's
// grids (and Spills counts) cell for cell against it.
func placeEvenlyReference(gs *core.GroupSet, s delaymodel.Frequencies, nReal int) (*core.Program, PlacementStats, error) {
	var stats PlacementStats
	if err := s.Validate(gs); err != nil {
		return nil, stats, err
	}
	if nReal < 1 {
		return nil, stats, fmt.Errorf("%w: %d channels", core.ErrInsufficientChannels, nReal)
	}
	tMajor := s.MajorCycle(gs, nReal)
	prog, err := core.NewProgram(gs, nReal, tMajor)
	if err != nil {
		return nil, stats, err
	}

	freeInCol := make([]int, tMajor)
	for c := range freeInCol {
		freeInCol[c] = nReal
	}

	order := make([]int, gs.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s[order[a]] > s[order[b]] })

	for _, gi := range order {
		g := gs.Group(gi)
		si := s[gi]
		for j := 0; j < g.Count; j++ {
			id := gs.PageAt(gi, j)
			for k := 0; k < si; k++ {
				start := core.CeilDiv(tMajor*k, si)
				end := core.CeilDiv(tMajor*(k+1), si)
				col, ok := findFreeColumn(freeInCol, start, end)
				if !ok {
					stats.Spills++
					col, ok = findFreeColumnCyclic(freeInCol, end, tMajor)
					if !ok {
						return nil, stats, fmt.Errorf(
							"pamad: no free slot for page %d appearance %d/%d (t_major=%d, F=%d, N=%d)",
							id, k+1, si, tMajor, s.TotalSlots(gs), nReal)
					}
				}
				if err := placeInColumn(prog, col, id); err != nil {
					return nil, stats, err
				}
				freeInCol[col]--
			}
		}
	}
	stats.EmptySlots = nReal*tMajor - prog.Filled()
	return prog, stats, nil
}

// findFreeColumn returns the first column in [start, end) with a free cell.
func findFreeColumn(freeInCol []int, start, end int) (int, bool) {
	for c := start; c < end && c < len(freeInCol); c++ {
		if freeInCol[c] > 0 {
			return c, true
		}
	}
	return 0, false
}

// findFreeColumnCyclic scans from column `from` wrapping around the cycle.
// The wrap uses an overflow reset instead of a `%` per probe.
func findFreeColumnCyclic(freeInCol []int, from, tMajor int) (int, bool) {
	c := from
	if c >= tMajor {
		c -= tMajor
	}
	for step := 0; step < tMajor; step++ {
		if freeInCol[c] > 0 {
			return c, true
		}
		c++
		if c == tMajor {
			c = 0
		}
	}
	return 0, false
}

// placeInColumn puts id in the first empty channel of column col.
func placeInColumn(prog *core.Program, col int, id core.PageID) error {
	for ch := 0; ch < prog.Channels(); ch++ {
		if prog.At(ch, col) == core.None {
			return prog.Place(ch, col, id)
		}
	}
	return fmt.Errorf("%w: column %d unexpectedly full", core.ErrSlotOccupied, col)
}
