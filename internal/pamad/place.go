package pamad

import (
	"fmt"
	"sort"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// PlacementStats reports how faithfully Algorithm 4 realised the even
// spread.
type PlacementStats struct {
	// Spills counts placements that did not fit anywhere inside their
	// preferred window [ceil(t_major*k/S), ceil(t_major*(k+1)/S)) and had
	// to continue scanning cyclically past it. The paper argues the window
	// always has room; the counter makes that claim observable.
	Spills int
	// EmptySlots is the number of unused grid cells (N*t_major - F).
	EmptySlots int
}

// colChain is a path-compressed union-find over columns answering "first
// column >= c with a free cell" in near-O(1) amortized time. chain[c] points
// toward that column; a free column is its own root. Index tMajor is a
// sentinel root meaning "no free column at or after c". When a column
// saturates it is linked to its successor, so repeated scans never re-walk
// full columns — this replaces the linear window and spill scans of the
// literal Algorithm 4 (kept in the tests as the oracle).
type colChain []int32

func newColChain(tMajor int) colChain {
	cc := make(colChain, tMajor+1)
	for i := range cc {
		cc[i] = int32(i)
	}
	return cc
}

// find returns the first free column >= c, or len(cc)-1 (the sentinel) when
// every column at or after c is full.
func (cc colChain) find(c int) int {
	root := c
	for int(cc[root]) != root {
		root = int(cc[root])
	}
	for int(cc[c]) != root {
		c, cc[c] = int(cc[c]), int32(root)
	}
	return root
}

// markFull links a saturated column to its successor.
func (cc colChain) markFull(c int) {
	cc[c] = int32(c + 1)
}

// PlaceEvenly is Algorithm 4 of the paper: given per-group broadcast
// frequencies, build the broadcast program that spreads every page's S_i
// appearances evenly over the major cycle. Pages are placed in descending
// frequency order; each appearance k targets the window
// [ceil(t_major*k/S_i), ceil(t_major*(k+1)/S_i)) and takes the first free
// channel slot, column-major. If the window is exhausted the scan continues
// cyclically (counted in PlacementStats.Spills); a free slot always exists
// because t_major was sized to hold all F transmissions.
//
// The implementation derives the target channel arithmetically — columns
// fill bottom-up and cells are never cleared, so the first empty channel of
// column c is exactly nReal - freeInCol[c] — and skips saturated columns
// through a union-find successor chain, making each placement O(α(t_major))
// amortized instead of O(window + N). The package tests retain the literal
// scanning algorithm as an oracle; the differential tests and
// FuzzPAMADPlacement pin the two cell for cell.
//
// The same placement routine serves both PAMAD and the m-PB baseline, as in
// the paper's experimental setup ("assignment of data to multiple channels
// is the same as that of the PAMAD algorithm once the broadcast frequency
// is determined").
func PlaceEvenly(gs *core.GroupSet, s delaymodel.Frequencies, nReal int) (*core.Program, PlacementStats, error) {
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

	// freeInCol[c] tracks how many empty cells column c still has; the
	// chain answers "first non-saturated column >= c" without scanning.
	freeInCol := make([]int, tMajor)
	for c := range freeInCol {
		freeInCol[c] = nReal
	}
	chain := newColChain(tMajor)

	// Descending frequency order; ties resolved by group order (ascending
	// expected time), preserving the paper's sort stability.
	order := make([]int, gs.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s[order[a]] > s[order[b]] })

	for _, gi := range order {
		if err := placeGroupPages(prog, gs, s, gi, tMajor, nReal, chain, freeInCol, &stats, nil); err != nil {
			return nil, stats, err
		}
	}
	stats.EmptySlots = nReal*tMajor - prog.Filled()
	return prog, stats, nil
}

// placeGroupPages runs the Algorithm 4 inner loop for every page of group
// gi against the live chain/freeInCol state, optionally recording each
// placement into cells. It is the one placement loop shared by PlaceEvenly,
// the incremental Placer's full build, and the Placer's suffix replay, and
// its per-page step is the Placer's append fast path — the bit-identity of
// incremental rebuilds rests on all four walking exactly this code.
func placeGroupPages(prog *core.Program, gs *core.GroupSet, s delaymodel.Frequencies, gi, tMajor, nReal int, chain colChain, freeInCol []int, stats *PlacementStats, cells *[]Cell) error {
	w := newWindowStep(tMajor, s[gi])
	for j := 0; j < gs.Group(gi).Count; j++ {
		if err := placeOnePage(prog, gs, s, gi, j, w, tMajor, nReal, chain, freeInCol, stats, cells); err != nil {
			return err
		}
	}
	return nil
}

// placeOnePage places the j-th page of group gi: its S_i appearances, one
// per window of the major cycle, spilling cyclically past a full window.
// w is t_major split by S_i.
func placeOnePage(prog *core.Program, gs *core.GroupSet, s delaymodel.Frequencies, gi, j int, w windowStep, tMajor, nReal int, chain colChain, freeInCol []int, stats *PlacementStats, cells *[]Cell) error {
	si := w.si
	id := gs.PageAt(gi, j)
	end, def := 0, 0 // window k starts where window k-1 ended
	for k := 0; k < si; k++ {
		start := end
		end, def = w.next(end, def)
		col := chain.find(start)
		if col >= end {
			// Nothing free inside the window: spill cyclically from
			// its end. end <= t_major (k < S_i), and wrapping to
			// find(0) matches the cyclic scan because when every
			// column >= end is full the first free column overall
			// precedes end.
			stats.Spills++
			col = chain.find(end)
			if col == tMajor {
				col = chain.find(0)
			}
			if col == tMajor {
				return fmt.Errorf(
					"pamad: no free slot for page %d appearance %d/%d (t_major=%d, F=%d, N=%d)",
					id, k+1, si, tMajor, s.TotalSlots(gs), nReal)
			}
		}
		// Columns fill bottom-up and are never cleared, so the first
		// empty channel is determined by the fill count alone.
		ch := nReal - freeInCol[col]
		if err := prog.Place(ch, col, id); err != nil {
			return err
		}
		if cells != nil {
			*cells = append(*cells, Cell{Channel: int32(ch), Column: int32(col)})
		}
		freeInCol[col]--
		if freeInCol[col] == 0 {
			chain.markFull(col)
		}
	}
	return nil
}

// windowStep steps a page's window ends ceil(t_major*(k+1)/S_i),
// k = 0..S_i-1, without dividing per appearance: it holds t_major split
// by S_i once for a whole group, t_major = q*si + r with 0 <= r < si.
type windowStep struct{ q, r, si int }

func newWindowStep(tMajor, si int) windowStep {
	return windowStep{q: tMajor / si, r: tMajor % si, si: si}
}

// next takes window k-1's end, held as t_major*k = end*si - def with
// 0 <= def < si, and returns window k's end ceil(t_major*(k+1)/si) and
// its def. Window 0 starts from end = def = 0.
func (w windowStep) next(end, def int) (int, int) {
	end += w.q
	def -= w.r
	if def < 0 {
		def += w.si
		end++
	}
	return end, def
}
