package susc

import (
	"fmt"

	"tcsa/internal/core"
)

// buildReference is the literal Algorithm 2 builder that Build replaced: for
// every page it rescans channels 0..N-1 from the top (getAvailableSlot),
// placing each repeat with a per-cell Place call. It is retained verbatim as
// the differential oracle — TestBuildMatchesReference and
// FuzzSUSCEquivalence pin Build's grids cell for cell against it — and
// lives in test code: production callers get the O(cells) cursor build.
func buildReference(gs *core.GroupSet, channels int) (*core.Program, error) {
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

	// nextFree[x] is a per-channel search hint: every slot before it on
	// channel x is occupied. Pages are placed in ascending t_i order and a
	// page's repeats never occupy a slot before its first appearance, so
	// slots below the hint can never free up during the build.
	nextFree := make([]int, channels)

	for i := 0; i < gs.Len(); i++ {
		g := gs.Group(i)
		repeats := th / g.Time
		for j := 0; j < g.Count; j++ {
			id := gs.PageAt(i, j)
			x, y, ok := getAvailableSlot(prog, nextFree, g.Time)
			if !ok {
				return nil, fmt.Errorf("%w: no slot for page %d (group %d, t=%d) — Theorem 3.2 violated",
					core.ErrInsufficientChannels, id, i+1, g.Time)
			}
			for k := 0; k < repeats; k++ {
				if err := prog.Place(x, y+k*g.Time, id); err != nil {
					return nil, fmt.Errorf("susc: placing page %d repeat %d: %w", id, k, err)
				}
			}
			for nextFree[x] < th && prog.At(x, nextFree[x]) != core.None {
				nextFree[x]++
			}
		}
	}
	return prog, nil
}

// getAvailableSlot is Algorithm 2: scan channel x = 0..N-1, slot
// y = 0..t-1, returning the first empty cell. nextFree provides a
// monotone per-channel lower bound on the first free slot.
func getAvailableSlot(p *core.Program, nextFree []int, t int) (x, y int, ok bool) {
	for x = 0; x < p.Channels(); x++ {
		for y = nextFree[x]; y < t; y++ {
			if p.At(x, y) == core.None {
				return x, y, true
			}
		}
	}
	return 0, 0, false
}
