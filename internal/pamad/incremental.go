package pamad

import (
	"fmt"
	"slices"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// Cell addresses one grid cell a placement wrote: the unit of the replan
// engine's deltas.
type Cell struct {
	Channel int32
	Column  int32
}

// checkpoint snapshots the placement state at a group boundary. Restoring
// it and re-running placeGroupPages for the remaining groups reproduces a
// from-scratch placement bit for bit, because the prefix operations of a
// fresh run are identical to the ones that produced the snapshot.
type checkpoint struct {
	chain     colChain
	freeInCol []int
	spills    int
	cells     int // len(Placer.cells) at the boundary
}

// Placer is PlaceEvenly with persistent state: it retains the
// path-compressed union-find column chain, the per-column fill counts, a
// per-transmission placement log, and a snapshot of all three at every
// group boundary. That turns the placement into an incrementally editable
// structure: when an instance edit leaves groups 0..g-1, the frequency
// prefix S_1..S_g and t_major unchanged, the placements of those groups
// are bit-identical in a from-scratch rebuild (pages are placed in group
// order for divisor-chain frequencies, and IDs below group g do not
// shift), so ReplayFrom(g) — restore the group-g snapshot, clear the
// suffix cells, re-place groups g..h-1 — yields exactly the program
// PlaceEvenly would build for the edited instance, in O(suffix) work
// instead of O(F). AppendLast is the O(S_h) fast path for the most common
// edit of all: a page appended to the last group.
//
// A Placer is not safe for concurrent use; the replan engine serialises
// edits and hands out immutable program snapshots.
type Placer struct {
	gs     *core.GroupSet
	s      delaymodel.Frequencies
	nReal  int
	tMajor int
	prog   *core.Program
	stats  PlacementStats

	chain     colChain
	freeInCol []int
	cells     []Cell       // placement log, one entry per transmission
	marks     []checkpoint // marks[g] = state at the start of group g
}

// NewPlacer builds the program for (gs, s, nReal) with full checkpointing.
// The frequencies must be non-increasing (every divisor-chain vector is:
// S_i = S_{i+1}*r_i with r_i >= 1), which makes PlaceEvenly's
// descending-frequency stable sort the identity permutation — the property
// the per-group checkpoints rely on. Vectors outside that family are
// rejected; callers needing them use PlaceEvenly directly.
func NewPlacer(gs *core.GroupSet, s delaymodel.Frequencies, nReal int) (*Placer, error) {
	return newPlacer(gs, s, nReal, 0)
}

// Rebuilt is NewPlacer for a rebuilt instance, with a placement log of at
// least p's capacity: an instance that grows back to its size before the
// rebuild appends into the log without regrowing and copying it.
func (p *Placer) Rebuilt(gs *core.GroupSet, s delaymodel.Frequencies, nReal int) (*Placer, error) {
	return newPlacer(gs, s, nReal, cap(p.cells))
}

// newPlacer is NewPlacer with a placement log of at least logCap cells.
func newPlacer(gs *core.GroupSet, s delaymodel.Frequencies, nReal, logCap int) (*Placer, error) {
	if err := s.Validate(gs); err != nil {
		return nil, err
	}
	if nReal < 1 {
		return nil, fmt.Errorf("%w: %d channels", core.ErrInsufficientChannels, nReal)
	}
	if err := requireNonIncreasing(s); err != nil {
		return nil, err
	}
	tMajor := s.MajorCycle(gs, nReal)
	prog, err := core.NewProgram(gs, nReal, tMajor)
	if err != nil {
		return nil, err
	}
	p := &Placer{
		gs:        gs,
		s:         s.Clone(),
		nReal:     nReal,
		tMajor:    tMajor,
		prog:      prog,
		chain:     newColChain(tMajor),
		freeInCol: make([]int, tMajor),
		cells:     make([]Cell, 0, max(s.TotalSlots(gs), logCap)),
		marks:     make([]checkpoint, 0, gs.Len()),
	}
	for c := range p.freeInCol {
		p.freeInCol[c] = nReal
	}
	if err := p.placeFrom(0); err != nil {
		return nil, err
	}
	return p, nil
}

// requireNonIncreasing rejects frequency vectors whose placement order is
// not the group order.
func requireNonIncreasing(s delaymodel.Frequencies) error {
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			return fmt.Errorf("%w: S_%d=%d > S_%d=%d — incremental placement requires the non-increasing divisor-chain order",
				core.ErrInvalidGroupSet, i+1, s[i], i, s[i-1])
		}
	}
	return nil
}

// placeFrom places groups g..h-1 against the live state, snapshotting each
// group boundary as it crosses it.
func (p *Placer) placeFrom(g int) error {
	p.marks = p.marks[:g]
	for gi := g; gi < p.gs.Len(); gi++ {
		p.mark()
		if err := placeGroupPages(p.prog, p.gs, p.s, gi, p.tMajor, p.nReal, p.chain, p.freeInCol, &p.stats, &p.cells); err != nil {
			return err
		}
	}
	p.stats.EmptySlots = p.nReal*p.tMajor - p.prog.Filled()
	return nil
}

// mark appends a copy of the live placement state to marks. A mark
// slot a replay truncated away keeps its buffers, and the copy reuses
// them: t_major is fixed for the Placer's lifetime, so a suffix replay
// allocates no checkpoint memory.
func (p *Placer) mark() {
	n := len(p.marks)
	p.marks = slices.Grow(p.marks, 1)[:n+1]
	m := &p.marks[n]
	m.chain = append(m.chain[:0], p.chain...)
	m.freeInCol = append(m.freeInCol[:0], p.freeInCol...)
	m.spills = p.stats.Spills
	m.cells = len(p.cells)
}

// Program returns the live program. The replan engine clones it before
// publishing; the Placer keeps mutating this instance.
func (p *Placer) Program() *core.Program { return p.prog }

// GroupSet returns the instance currently placed.
func (p *Placer) GroupSet() *core.GroupSet { return p.gs }

// Frequencies returns the frequency vector currently placed.
func (p *Placer) Frequencies() delaymodel.Frequencies { return p.s }

// Stats returns the placement accounting, identical to what PlaceEvenly
// would report for the current instance.
func (p *Placer) Stats() PlacementStats { return p.stats }

// MajorCycle returns t_major, the fixed column count of the live grid.
func (p *Placer) MajorCycle() int { return p.tMajor }

// Channels returns the channel budget the placement was built for.
func (p *Placer) Channels() int { return p.nReal }

// ReplayFrom rebinds the placement to the edited instance (gsNew, sNew) by
// restoring the group-g checkpoint, clearing every cell groups >= g had
// placed, and re-running the placement loop for groups g..h-1 of the new
// instance. The caller guarantees the edit preserved groups 0..g-1, the
// frequency prefix S_1..S_g, the channel budget's t_major, and the
// non-increasing frequency order; ReplayFrom verifies all four and refuses
// otherwise. On success the live program is bit-identical to
// PlaceEvenly(gsNew, sNew, nReal). It appends the cells the replay
// vacated to dst and returns that slice as cleared, and returns the cells
// it wrote as placed, a view of the placement log valid until the Placer's
// next edit. Both are in placement order: groups ascending from g, pages
// ascending within a group, appearances k=0..S_i-1 per page.
func (p *Placer) ReplayFrom(g int, gsNew *core.GroupSet, sNew delaymodel.Frequencies, dst []Cell) (cleared, placed []Cell, err error) {
	if err := sNew.Validate(gsNew); err != nil {
		return nil, nil, err
	}
	if err := requireNonIncreasing(sNew); err != nil {
		return nil, nil, err
	}
	if g < 0 || g > gsNew.Len() || g > p.gs.Len() {
		return nil, nil, fmt.Errorf("%w: replay from group %d of %d", core.ErrInvalidGroupSet, g+1, gsNew.Len())
	}
	for i := 0; i < g; i++ {
		if p.gs.Group(i) != gsNew.Group(i) || p.s[i] != sNew[i] {
			return nil, nil, fmt.Errorf("%w: group %d changed below the replay point", core.ErrInvalidGroupSet, i+1)
		}
	}
	if tm := sNew.MajorCycle(gsNew, p.nReal); tm != p.tMajor {
		return nil, nil, fmt.Errorf("%w: edit moves t_major %d -> %d; replay requires a full rebuild",
			core.ErrInvalidGroupSet, p.tMajor, tm)
	}
	if g == gsNew.Len() && g == p.gs.Len() {
		// Nothing below h changed and there is no suffix: the edit was a
		// no-op for the placement.
		p.gs, p.s = gsNew, sNew.Clone()
		if err := p.prog.Rebind(gsNew); err != nil {
			return nil, nil, err
		}
		return nil, nil, nil
	}
	if g >= len(p.marks) {
		return nil, nil, fmt.Errorf("%w: no checkpoint for group %d", core.ErrInvalidGroupSet, g+1)
	}

	// Restore the boundary state and vacate the suffix cells, copying
	// them out before the replay rewrites the log. The cells cleared are
	// exactly the ones placed after the checkpoint, so every column drops
	// back to its checkpointed bottom-up fill.
	mark := &p.marks[g]
	copy(p.chain, mark.chain)
	copy(p.freeInCol, mark.freeInCol)
	p.stats.Spills = mark.spills
	cleared = append(dst, p.cells[mark.cells:]...)
	for _, c := range p.cells[mark.cells:] {
		p.prog.Clear(int(c.Channel), int(c.Column))
	}
	p.cells = p.cells[:mark.cells]

	// The prefix cells' page IDs are identical under the new instance
	// (groups below g are unchanged and IDs are dense group-by-group), so
	// the grid rebinds verbatim.
	p.gs, p.s = gsNew, sNew.Clone()
	if err := p.prog.Rebind(gsNew); err != nil {
		return nil, nil, err
	}
	start := len(p.cells)
	if err := p.placeFrom(g); err != nil {
		return nil, nil, err
	}
	return cleared, p.cells[start:], nil
}

// AppendLast is the O(S_h) fast path for appending one page to the last
// group when the edit left the frequency vector and t_major unchanged: the
// new page's ID is n, placed after every existing page, so its appearances
// extend the original placement run against the live chain with no replay
// at all. It returns the cells the new page occupies.
func (p *Placer) AppendLast(gsNew *core.GroupSet) ([]Cell, error) {
	h := p.gs.Len()
	if gsNew.Len() != h {
		return nil, fmt.Errorf("%w: append changed group count %d -> %d", core.ErrInvalidGroupSet, h, gsNew.Len())
	}
	for i := 0; i < h-1; i++ {
		if p.gs.Group(i) != gsNew.Group(i) {
			return nil, fmt.Errorf("%w: group %d changed in append", core.ErrInvalidGroupSet, i+1)
		}
	}
	last, lastNew := p.gs.Group(h-1), gsNew.Group(h-1)
	if lastNew.Time != last.Time || lastNew.Count != last.Count+1 {
		return nil, fmt.Errorf("%w: append expects last group count %d+1 at time %d, got {t=%d P=%d}",
			core.ErrInvalidGroupSet, last.Count, last.Time, lastNew.Time, lastNew.Count)
	}
	if tm := p.s.MajorCycle(gsNew, p.nReal); tm != p.tMajor {
		return nil, fmt.Errorf("%w: append moves t_major %d -> %d; replay required",
			core.ErrInvalidGroupSet, p.tMajor, tm)
	}
	if err := p.prog.Rebind(gsNew); err != nil {
		return nil, err
	}
	p.gs = gsNew
	start := len(p.cells)
	w := newWindowStep(p.tMajor, p.s[h-1])
	if err := placeOnePage(p.prog, gsNew, p.s, h-1, lastNew.Count-1, w, p.tMajor, p.nReal, p.chain, p.freeInCol, &p.stats, &p.cells); err != nil {
		return nil, err
	}
	p.stats.EmptySlots = p.nReal*p.tMajor - p.prog.Filled()
	return p.cells[start:], nil
}
