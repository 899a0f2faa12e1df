// Package replan is the incremental placement engine behind the elastic
// runtime: it turns dynamic instance events — a page added or retired, a
// group's expected time changed, the channel budget resized — into
// O(Δ)-work edits of the live PAMAD program instead of O(n) rebuilds.
//
// The engine exploits two structural facts of Algorithm 4 placement. First,
// every frequency vector Algorithm 3 (and the PTAS) emits is a divisor
// chain, so the descending-frequency placement order is exactly the group
// order: pages of group i are placed before every page of group i+1.
// Second, page IDs are dense group by group, so an edit to group g leaves
// the IDs — and therefore the placements — of groups 0..g-1 untouched.
// Together these mean a from-scratch rebuild after an edit to group g
// replays the old placement verbatim up to the group-g boundary; the
// pamad.Placer checkpoints that boundary state (union-find column chain,
// per-column fill, placement log), so the engine can restore it and replay
// only the suffix. When the edit also leaves the whole frequency vector and
// t_major unchanged and merely appends a page to the last group, the replay
// collapses to placing that one page against the live chain: O(S_h)
// amortized.
//
// Every edit yields a Delta — the cleared and written cells with page
// identities on both sides of the edit, plus moved/placed/evicted
// accounting and an O(1) old-ID→new-ID remap — and the post-edit program
// is bit-identical to pamad.PlaceEvenly rerun from scratch on the edited
// instance (differential- and fuzz-gated; see the package tests and
// FuzzReplanEquivalence).
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package replan

import (
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
)

// Kind classifies how much work an edit cost.
type Kind int

const (
	// KindNone: the edit did not change the placement (e.g. SetChannels to
	// the current budget).
	KindNone Kind = iota
	// KindAppend: one page appended to the last group with the frequency
	// vector and t_major unchanged — placed against the live chain in
	// O(S_h) with no replay.
	KindAppend
	// KindSuffix: groups below the earliest affected index kept their
	// placement; the suffix was replayed from the checkpoint.
	KindSuffix
	// KindRebuild: the derived frequency vector, t_major, or the channel
	// budget changed, so the whole placement was rebuilt.
	KindRebuild
)

// String names the kind for reports and logs.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindAppend:
		return "append"
	case KindSuffix:
		return "suffix"
	case KindRebuild:
		return "rebuild"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// CellRef is one grid-cell change: the cell and the page involved. Pages
// in Delta.Cleared carry pre-edit IDs, pages in Delta.Placed post-edit IDs.
type CellRef struct {
	Channel int32
	Column  int32
	Page    core.PageID
}

// Delta describes what one edit did to the live program.
type Delta struct {
	// Seq is the engine's edit sequence number, 1-based.
	Seq int
	// Kind classifies the work done.
	Kind Kind
	// FromGroup is the earliest replayed group (KindAppend/KindSuffix).
	FromGroup int
	// Cleared lists the cells the edit vacated (pre-edit page IDs), in
	// placement order. Nil for KindNone, KindAppend and KindRebuild (a
	// rebuild swaps the whole grid; per-cell diffs would cost the O(n) the
	// engine avoids).
	//
	// Cleared and Placed live in arenas the engine reuses: they are valid
	// until the engine's next edit, which overwrites them. Copy them to
	// keep them longer.
	Cleared []CellRef
	// Placed lists the cells the edit wrote (post-edit page IDs), in
	// placement order. Nil for KindNone and KindRebuild.
	Placed []CellRef
	// ClearedCells/PlacedCells count the vacated and written cells for
	// every kind, including rebuilds (where they are the old and new
	// transmission totals F).
	ClearedCells int
	PlacedCells  int
	// Unchanged counts written cells re-occupied by the page (under its
	// remapped ID) that held them before the edit; Moved counts cells
	// written with a surviving page somewhere it was not; Added counts
	// cells of the brand-new page; Evicted counts vacated cells of retired
	// pages. All four are zero for KindNone and KindRebuild.
	Unchanged int
	Moved     int
	Added     int
	Evicted   int

	// remap parameters: old IDs at or above shiftAt move by shiftBy;
	// removed (or core.None) is the one old ID with no successor.
	shiftAt  core.PageID
	shiftBy  int
	removed  core.PageID
	oldPages int
}

// RemapPage translates a pre-edit PageID to its post-edit identity, or
// core.None when the page was retired. Pages are stable handles across
// every other edit: only the dense-ID packing shifts.
func (d *Delta) RemapPage(id core.PageID) core.PageID {
	if id < 0 || int(id) >= d.oldPages {
		return core.None
	}
	if id == d.removed {
		return core.None
	}
	if id >= d.shiftAt {
		return id + core.PageID(d.shiftBy)
	}
	return id
}

// Engine owns a live PAMAD placement and applies instance edits to it
// incrementally. Not safe for concurrent use: callers serialise edits and
// publish Snapshot() clones to concurrent readers (the netcast epoch-flip
// path).
type Engine struct {
	nReal  int
	placer *pamad.Placer
	seq    int

	// Arenas reused across edits: the backing arrays of Delta.Cleared and
	// Delta.Placed, and account's per-cell scratch (channel-major, one
	// entry per grid cell), which is core.None everywhere between edits.
	cleared []CellRef
	placed  []CellRef
	prev    []core.PageID
}

// New derives Algorithm 3 frequencies for gs at nReal channels and builds
// the checkpointed placement the engine edits in place.
func New(gs *core.GroupSet, nReal int) (*Engine, error) {
	s, _, err := pamad.Frequencies(gs, nReal)
	if err != nil {
		return nil, err
	}
	placer, err := pamad.NewPlacer(gs, s, nReal)
	if err != nil {
		return nil, err
	}
	return &Engine{nReal: nReal, placer: placer}, nil
}

// Program returns the live program. The engine keeps mutating it; use
// Snapshot for a stable copy to publish.
func (e *Engine) Program() *core.Program { return e.placer.Program() }

// Snapshot returns an immutable copy of the live program, the
// copy-on-write handle the broadcast layer stages for an epoch flip.
func (e *Engine) Snapshot() *core.Program { return e.placer.Program().Clone() }

// GroupSet returns the live instance.
func (e *Engine) GroupSet() *core.GroupSet { return e.placer.GroupSet() }

// Frequencies returns the live frequency vector.
func (e *Engine) Frequencies() delaymodel.Frequencies { return e.placer.Frequencies() }

// Channels returns the live channel budget.
func (e *Engine) Channels() int { return e.nReal }

// Stats returns the live placement accounting, identical to PlaceEvenly's
// for the current instance.
func (e *Engine) Stats() pamad.PlacementStats { return e.placer.Stats() }

// Delay returns the analytic D' of the live schedule.
func (e *Engine) Delay() float64 {
	return delaymodel.GroupDelay(e.GroupSet(), e.Frequencies(), e.nReal)
}

// edit carries the identity bookkeeping of one event into apply.
type edit struct {
	shiftAt core.PageID // old IDs >= shiftAt move by shiftBy
	shiftBy int
	removed core.PageID // retired old ID, or core.None
	added   core.PageID // brand-new post-edit ID, or core.None
}

func identityEdit() edit {
	return edit{shiftAt: 0, shiftBy: 0, removed: core.None, added: core.None}
}

// AddPage appends one page to group (0-based): the page gets the ID right
// after the group's current last page, and every later ID shifts up by
// one. When the derived frequencies and t_major survive the edit and the
// group is the last one, this is the O(S_h) append fast path.
func (e *Engine) AddPage(group int) (*Delta, error) {
	gs := e.GroupSet()
	if group < 0 || group >= gs.Len() {
		return nil, fmt.Errorf("%w: group %d of %d", core.ErrInvalidGroupSet, group+1, gs.Len())
	}
	groups := gs.Groups()
	groups[group].Count++
	gsNew, err := core.NewGroupSet(groups)
	if err != nil {
		return nil, err
	}
	first, count := gs.GroupPages(group)
	insertAt := first + core.PageID(count)
	ed := edit{shiftAt: insertAt, shiftBy: 1, removed: core.None, added: insertAt}
	return e.apply(gsNew, e.nReal, ed)
}

// RetirePage retires the last page of group (0-based); later IDs shift
// down by one. A group never empties: retiring its only page is an error
// (drop the group by editing times instead — group structure edits are a
// rebuild anyway).
func (e *Engine) RetirePage(group int) (*Delta, error) {
	gs := e.GroupSet()
	if group < 0 || group >= gs.Len() {
		return nil, fmt.Errorf("%w: group %d of %d", core.ErrInvalidGroupSet, group+1, gs.Len())
	}
	if gs.Group(group).Count == 1 {
		return nil, fmt.Errorf("%w: retiring the only page of group %d", core.ErrInvalidGroupSet, group+1)
	}
	groups := gs.Groups()
	groups[group].Count--
	gsNew, err := core.NewGroupSet(groups)
	if err != nil {
		return nil, err
	}
	first, count := gs.GroupPages(group)
	removed := first + core.PageID(count-1)
	ed := edit{shiftAt: removed + 1, shiftBy: -1, removed: removed, added: core.None}
	return e.apply(gsNew, e.nReal, ed)
}

// SetExpectedTime changes group's expected time (0-based group index). The
// new time must keep the strictly-increasing divisor chain valid —
// core.NewGroupSet enforces it. Page identities are unchanged.
func (e *Engine) SetExpectedTime(group, t int) (*Delta, error) {
	gs := e.GroupSet()
	if group < 0 || group >= gs.Len() {
		return nil, fmt.Errorf("%w: group %d of %d", core.ErrInvalidGroupSet, group+1, gs.Len())
	}
	groups := gs.Groups()
	groups[group].Time = t
	gsNew, err := core.NewGroupSet(groups)
	if err != nil {
		return nil, err
	}
	return e.apply(gsNew, e.nReal, identityEdit())
}

// SetChannels resizes the broadcast channel budget. Page identities are
// unchanged; anything but a no-op is a full rebuild (t_major moves with
// the budget).
func (e *Engine) SetChannels(n int) (*Delta, error) {
	return e.apply(e.GroupSet(), n, identityEdit())
}

// apply re-derives frequencies for the edited instance, classifies the
// edit, and performs the cheapest placement update that is bit-identical
// to a from-scratch PlaceEvenly on (gsNew, nReal).
func (e *Engine) apply(gsNew *core.GroupSet, nReal int, ed edit) (*Delta, error) {
	sNew, _, err := pamad.Frequencies(gsNew, nReal)
	if err != nil {
		return nil, err
	}
	old := e.placer
	gsOld, sOld := old.GroupSet(), old.Frequencies()
	d := &Delta{
		Seq:      e.seq + 1,
		shiftAt:  ed.shiftAt,
		shiftBy:  ed.shiftBy,
		removed:  ed.removed,
		oldPages: gsOld.Pages(),
	}

	h := gsNew.Len()
	rebuild := nReal != old.Channels() ||
		h != gsOld.Len() ||
		sNew.MajorCycle(gsNew, nReal) != old.MajorCycle()
	if rebuild {
		d.ClearedCells = sOld.TotalSlots(gsOld)
		placer, err := pamad.NewPlacer(gsNew, sNew, nReal)
		if err != nil {
			return nil, err
		}
		e.placer = placer
		e.nReal = nReal
		e.seq++
		d.Kind = KindRebuild
		d.PlacedCells = sNew.TotalSlots(gsNew)
		return d, nil
	}

	// Earliest group whose shape or frequency the edit touched: everything
	// below it placed identically, by the divisor-chain order argument.
	g := h
	for i := 0; i < h; i++ {
		if gsOld.Group(i) != gsNew.Group(i) || sOld[i] != sNew[i] {
			g = i
			break
		}
	}
	if g == h {
		if _, err := old.ReplayFrom(h, gsNew, sNew); err != nil {
			return nil, err
		}
		e.seq++
		d.Kind = KindNone
		return d, nil
	}

	if ed.added != core.None && g == h-1 && sOld.Equal(sNew) {
		placed, err := old.AppendLast(gsNew)
		if err != nil {
			return nil, err
		}
		e.seq++
		d.Kind = KindAppend
		d.FromGroup = g
		e.placed = e.placed[:0]
		for _, c := range placed {
			e.placed = append(e.placed, CellRef{Channel: c.Channel, Column: c.Column, Page: ed.added})
		}
		d.Placed = e.placed
		d.PlacedCells = len(d.Placed)
		d.Added = len(d.Placed)
		return d, nil
	}

	// Suffix replay. Annotate the doomed cells with their pre-edit pages
	// before the replay rewrites the log.
	e.cleared = annotate(e.cleared[:0], old.SuffixCells(g), gsOld, sOld, g)
	placed, err := old.ReplayFrom(g, gsNew, sNew)
	if err != nil {
		return nil, err
	}
	e.seq++
	d.Kind = KindSuffix
	d.FromGroup = g
	e.placed = annotate(e.placed[:0], placed, gsNew, sNew, g)
	d.Cleared, d.Placed = e.cleared, e.placed
	d.ClearedCells = len(d.Cleared)
	d.PlacedCells = len(d.Placed)
	e.account(d, ed)
	return d, nil
}

// annotate appends to dst the raw placement-log cells paired with the
// pages that occupy them: the log order is groups ascending from `from`,
// pages ascending within a group, k=0..S_i-1 appearances per page.
func annotate(dst []CellRef, cells []pamad.Cell, gs *core.GroupSet, s delaymodel.Frequencies, from int) []CellRef {
	i := 0
	for gi := from; gi < gs.Len(); gi++ {
		first, count := gs.GroupPages(gi)
		for j := 0; j < count; j++ {
			id := first + core.PageID(j)
			for k := 0; k < s[gi]; k++ {
				c := cells[i]
				dst = append(dst, CellRef{Channel: c.Channel, Column: c.Column, Page: id})
				i++
			}
		}
	}
	return dst
}

// account fills d's unchanged/moved/added/evicted counters from its
// cleared and placed cell lists in O(Δ). The engine's per-cell scratch
// records each cleared cell's remapped pre-edit page, is read at the
// placed cells, and is reset at the cleared cells, so it is all core.None
// again when account returns; a placed cell the edit did not clear was
// empty before the edit and reads core.None.
func (e *Engine) account(d *Delta, ed edit) {
	L := e.placer.MajorCycle()
	cells := e.nReal * L
	if cap(e.prev) < cells {
		e.prev = make([]core.PageID, cells)
		for i := range e.prev {
			e.prev[i] = core.None
		}
	}
	e.prev = e.prev[:cells] // every entry up to cap is core.None
	at := func(c CellRef) *core.PageID { return &e.prev[int(c.Channel)*L+int(c.Column)] }
	for _, c := range d.Cleared {
		nid := d.RemapPage(c.Page)
		if nid == core.None {
			d.Evicted++
		}
		*at(c) = nid
	}
	for _, c := range d.Placed {
		switch {
		case *at(c) == c.Page:
			d.Unchanged++
		case ed.added != core.None && c.Page == ed.added:
			d.Added++
		default:
			d.Moved++
		}
	}
	for _, c := range d.Cleared {
		*at(c) = core.None
	}
}
