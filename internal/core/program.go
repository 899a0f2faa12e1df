package core

import (
	"fmt"
	"strings"
)

// Program is a cyclic multi-channel broadcast program B: a channels x length
// grid of page IDs. Row x is broadcast channel x; column y is the set of
// pages transmitted simultaneously during slot y of the cycle. The program
// repeats forever with period length.
//
// The zero Program is not usable; construct with NewProgram.
type Program struct {
	gs       *GroupSet
	channels int
	length   int
	grid     []PageID // row-major: grid[ch*length+slot]
	filled   int
}

// MaxCells caps the cells of one channels × slots grid allocated from
// caller input: a Program (1 GiB of PageIDs) or a netcast broadcast ring.
// The ×1000 paper instance needs 5.4·10⁶.
const MaxCells = 1 << 28

// NewProgram allocates an empty program of the given dimensions over gs.
// It fails when channels × length exceeds MaxCells.
func NewProgram(gs *GroupSet, channels, length int) (*Program, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", ErrInvalidGroupSet)
	}
	if channels < 1 {
		return nil, fmt.Errorf("%w: %d channels", ErrSlotRange, channels)
	}
	if length < 1 {
		return nil, fmt.Errorf("%w: length %d", ErrSlotRange, length)
	}
	// Checked by division, so the product cannot overflow.
	if channels > MaxCells/length {
		return nil, fmt.Errorf("%w: %d channels x %d slots exceeds %d cells", ErrSlotRange, channels, length, MaxCells)
	}
	p := &Program{
		gs:       gs,
		channels: channels,
		length:   length,
		grid:     make([]PageID, channels*length),
	}
	for i := range p.grid {
		p.grid[i] = None
	}
	return p, nil
}

// GroupSet returns the problem instance the program was built for.
func (p *Program) GroupSet() *GroupSet { return p.gs }

// Channels returns the number of broadcast channels (grid rows).
func (p *Program) Channels() int { return p.channels }

// Length returns the broadcast cycle length in slots (grid columns).
func (p *Program) Length() int { return p.length }

// Filled returns the number of occupied slots.
func (p *Program) Filled() int { return p.filled }

// Occupancy returns the fraction of occupied slots in [0,1].
func (p *Program) Occupancy() float64 {
	return float64(p.filled) / float64(len(p.grid))
}

// At returns the page broadcast on channel ch during slot y, or None.
func (p *Program) At(ch, slot int) PageID {
	return p.grid[ch*p.length+slot]
}

// Column maps an absolute (possibly multi-cycle) slot index onto the
// program's cyclic column in [0, Length()). Negative indexes wrap
// backwards, so Column(-1) is the last column of the cycle. Callers must
// use this instead of raw % arithmetic on Length() (enforced by the
// airvet slotmath analyzer).
func (p *Program) Column(abs int) int {
	col := abs % p.length
	if col < 0 {
		col += p.length
	}
	return col
}

// AtAbs returns the page broadcast on channel ch at absolute slot abs of
// the infinitely repeating program: At(ch, Column(abs)).
func (p *Program) AtAbs(ch, abs int) PageID {
	return p.At(ch, p.Column(abs))
}

// WrapChannel maps an arbitrary channel index onto [0, Channels()),
// wrapping cyclically in both directions (channel-sweep arithmetic).
func (p *Program) WrapChannel(ch int) int {
	c := ch % p.channels
	if c < 0 {
		c += p.channels
	}
	return c
}

// InRange reports whether (ch, slot) addresses a grid cell.
func (p *Program) InRange(ch, slot int) bool {
	return ch >= 0 && ch < p.channels && slot >= 0 && slot < p.length
}

// Place assigns page id to (ch, slot). It fails if the cell is occupied, the
// indexes are out of range, or the page ID is not part of the group set.
func (p *Program) Place(ch, slot int, id PageID) error {
	if !p.InRange(ch, slot) {
		return fmt.Errorf("%w: (%d,%d) in %dx%d program", ErrSlotRange, ch, slot, p.channels, p.length)
	}
	if id < 0 || int(id) >= p.gs.Pages() {
		return fmt.Errorf("%w: %d (n=%d)", ErrPageRange, id, p.gs.Pages())
	}
	cell := &p.grid[ch*p.length+slot]
	if *cell != None {
		return fmt.Errorf("%w: (%d,%d) holds page %d", ErrSlotOccupied, ch, slot, *cell)
	}
	*cell = id
	p.filled++
	return nil
}

// PlaceRepeats assigns page id to the Theorem 3.3 repetition pattern
// first, first+period, ..., first+(count-1)*period on channel ch. It is the
// bulk counterpart of Place for schedule construction: the channel, page and
// slot range are validated once for the whole pattern instead of once per
// cell, and the cells are written directly. If any target cell is occupied
// nothing is modified.
func (p *Program) PlaceRepeats(ch, first, period, count int, id PageID) error {
	if period < 1 || count < 1 {
		return fmt.Errorf("%w: repeat pattern period %d count %d", ErrSlotRange, period, count)
	}
	last := first + (count-1)*period
	if !p.InRange(ch, first) || last >= p.length {
		return fmt.Errorf("%w: repeats (%d,%d..%d step %d) in %dx%d program",
			ErrSlotRange, ch, first, last, period, p.channels, p.length)
	}
	if id < 0 || int(id) >= p.gs.Pages() {
		return fmt.Errorf("%w: %d (n=%d)", ErrPageRange, id, p.gs.Pages())
	}
	row := p.grid[ch*p.length : (ch+1)*p.length]
	for slot := first; slot <= last; slot += period {
		if row[slot] != None {
			return fmt.Errorf("%w: (%d,%d) holds page %d", ErrSlotOccupied, ch, slot, row[slot])
		}
	}
	for slot := first; slot <= last; slot += period {
		row[slot] = id
	}
	p.filled += count
	return nil
}

// Clear empties cell (ch, slot); clearing an empty cell is a no-op.
func (p *Program) Clear(ch, slot int) {
	if !p.InRange(ch, slot) {
		return
	}
	cell := &p.grid[ch*p.length+slot]
	if *cell != None {
		*cell = None
		p.filled--
	}
}

// AppearanceIndex builds the flat appearance index of the program's
// current grid. The index is a snapshot: later Place/Clear edits are not
// reflected.
func (p *Program) AppearanceIndex() *AppearanceIndex {
	return BuildAppearanceIndex(p)
}

// Appearances returns the sorted distinct columns in which page id is
// broadcast (on any channel).
func (p *Program) Appearances(id PageID) []int {
	return p.AppearanceIndex().AppendColumns(nil, id)
}

// Validate checks the Section 3.1 validity conditions for every page:
//
//  1. each page of group i appears at least once within columns [0, t_i);
//  2. the gap between consecutive appearances, including the wrap from the
//     last appearance of one cycle to the first of the next, is <= t_i.
//
// It returns nil for a valid program and an error wrapping
// ErrInvalidProgram describing the first violation otherwise.
func (p *Program) Validate() error {
	ix := p.AppearanceIndex()
	for id := 0; id < ix.Pages(); id++ {
		t := p.gs.TimeOf(PageID(id))
		cols := ix.Columns(PageID(id))
		if len(cols) == 0 {
			return fmt.Errorf("%w: page %d never broadcast", ErrInvalidProgram, id)
		}
		if int(cols[0]) >= t {
			return fmt.Errorf("%w: page %d first broadcast at slot %d >= t=%d",
				ErrInvalidProgram, id, cols[0], t)
		}
		for k := 1; k < len(cols); k++ {
			if gap := int(cols[k] - cols[k-1]); gap > t {
				return fmt.Errorf("%w: page %d gap %d > t=%d between slots %d and %d",
					ErrInvalidProgram, id, gap, t, cols[k-1], cols[k])
			}
		}
		if wrap := int(cols[0]) + p.length - int(cols[len(cols)-1]); wrap > t {
			return fmt.Errorf("%w: page %d cyclic wrap gap %d > t=%d",
				ErrInvalidProgram, id, wrap, t)
		}
	}
	return nil
}

// CountOf returns how many cells hold page id (appearances counted per
// channel, unlike Appearances which deduplicates columns).
//
// Only tests call it; it stays exported for the bdisk, core and pamad
// suites.
//
//lint:ignore testonly cell-count probe shared by the bdisk, core and pamad tests
func (p *Program) CountOf(id PageID) int {
	n := 0
	for _, v := range p.grid {
		if v == id {
			n++
		}
	}
	return n
}

// Rebind swaps the group set the program's cells are interpreted against
// without touching the grid. It is the O(1) primitive the incremental
// replan engine uses to carry a placement prefix across an instance edit:
// when groups 0..g-1 are unchanged, their page IDs are identical in the
// old and new group sets, so the grid cells those groups occupy remain
// valid verbatim.
//
// The caller owns the invariant that every occupied cell's PageID is
// meaningful under gs — Rebind deliberately does not walk the grid
// (that scan would cost the O(n) the replan engine exists to avoid).
// Callers that cannot prove the invariant must Clear the affected cells
// before rebinding; the replan differential and fuzz gates pin the only
// production caller cell for cell.
func (p *Program) Rebind(gs *GroupSet) error {
	if gs == nil {
		return fmt.Errorf("%w: nil group set", ErrInvalidGroupSet)
	}
	p.gs = gs
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := *p
	q.grid = append([]PageID(nil), p.grid...)
	return &q
}

// String renders the grid with one line per channel; empty cells print "--".
// Intended for small programs (examples, debugging).
func (p *Program) String() string {
	var b strings.Builder
	width := 2
	if n := p.gs.Pages(); n > 100 {
		width = 4
	}
	for ch := 0; ch < p.channels; ch++ {
		fmt.Fprintf(&b, "ch%-2d |", ch)
		for slot := 0; slot < p.length; slot++ {
			id := p.At(ch, slot)
			if id == None {
				fmt.Fprintf(&b, " %*s", width, strings.Repeat("-", width))
			} else {
				fmt.Fprintf(&b, " %*d", width, id)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
