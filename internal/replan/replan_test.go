package replan

import (
	"math/rand"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
)

// scratch builds the from-scratch PAMAD program for (gs, nReal): the ground
// truth every incremental edit is pinned against.
func scratch(t *testing.T, gs *core.GroupSet, nReal int) *core.Program {
	t.Helper()
	s, _, err := pamad.Frequencies(gs, nReal)
	if err != nil {
		t.Fatalf("Frequencies(%v, %d): %v", gs, nReal, err)
	}
	prog, _, err := pamad.PlaceEvenly(gs, s, nReal)
	if err != nil {
		t.Fatalf("PlaceEvenly(%v, %v, %d): %v", gs, s, nReal, err)
	}
	return prog
}

func gridsEqual(t *testing.T, step int, got, want *core.Program) {
	t.Helper()
	if got.Channels() != want.Channels() || got.Length() != want.Length() {
		t.Fatalf("step %d: grid shape %dx%d, want %dx%d",
			step, got.Channels(), got.Length(), want.Channels(), want.Length())
	}
	if got.Filled() != want.Filled() {
		t.Fatalf("step %d: Filled = %d, want %d", step, got.Filled(), want.Filled())
	}
	for ch := 0; ch < want.Channels(); ch++ {
		for slot := 0; slot < want.Length(); slot++ {
			if got.At(ch, slot) != want.At(ch, slot) {
				t.Fatalf("step %d: cell (%d,%d) = %d, want %d",
					step, ch, slot, got.At(ch, slot), want.At(ch, slot))
			}
		}
	}
}

// cellRef is a Delta cell paired with the page involved: the pre-edit
// page for a cleared cell, the post-edit page for a placed one.
type cellRef struct {
	Channel int32
	Column  int32
	Page    core.PageID
}

// tally is an edit's per-cell accounting. Unchanged counts written cells
// re-occupied by the page (under its remapped ID) that held them before
// the edit; Moved counts cells written with a surviving page somewhere it
// was not; Added counts cells of the brand-new page; Evicted counts
// vacated cells of retired pages. All four are zero for KindNone and
// KindRebuild.
type tally struct {
	Unchanged, Moved, Added, Evicted int
}

// annotated is one edit as the test oracle sees it: the Delta's cells
// paired with their pages by placement-log order alone, and the tally
// derived from them.
type annotated struct {
	cleared, placed []cellRef
	tally
}

// annotate pairs raw placement-log cells with the pages that occupy
// them: the log order is groups ascending from `from`, pages ascending
// within a group, k=0..S_i-1 appearances per page.
func annotate(cells []pamad.Cell, gs *core.GroupSet, s delaymodel.Frequencies, from int) []cellRef {
	var dst []cellRef
	i := 0
	for gi := from; gi < gs.Len(); gi++ {
		first, count := gs.GroupPages(gi)
		for j := 0; j < count; j++ {
			id := first + core.PageID(j)
			for k := 0; k < s[gi]; k++ {
				c := cells[i]
				dst = append(dst, cellRef{Channel: c.Channel, Column: c.Column, Page: id})
				i++
			}
		}
	}
	return dst
}

// annotateEdit pairs d's cells with their pages without reading either
// grid: cleared cells under the pre-edit instance (gsOld, sOld), placed
// cells under eng's post-edit one, and an append's cells with the new
// last page. It then derives the edit's counts from those pages.
func annotateEdit(d *Delta, gsOld *core.GroupSet, sOld delaymodel.Frequencies, eng *Engine) annotated {
	var a annotated
	switch d.Kind {
	case KindSuffix:
		a.cleared = annotate(d.Cleared, gsOld, sOld, d.FromGroup)
		a.placed = annotate(d.Placed, eng.GroupSet(), eng.Frequencies(), d.FromGroup)
	case KindAppend:
		id := core.PageID(eng.GroupSet().Pages() - 1)
		for _, c := range d.Placed {
			a.placed = append(a.placed, cellRef{Channel: c.Channel, Column: c.Column, Page: id})
		}
	}
	a.tally = account(d, a.cleared, a.placed, eng.Channels(), eng.Program().Length())
	return a
}

// account derives an edit's counts from its annotated cells in O(Δ)
// with a dense per-cell scratch (channel-major, core.None everywhere
// else): it records each cleared cell's remapped pre-edit page and reads
// it back at the placed cells. A placed cell the edit did not clear was
// empty before the edit and reads core.None.
func account(d *Delta, cleared, placed []cellRef, nReal, L int) tally {
	added := core.None // the brand-new post-edit ID of an AddPage
	if d.shiftBy > 0 {
		added = d.shiftAt
	}
	prev := make([]core.PageID, nReal*L)
	for i := range prev {
		prev[i] = core.None
	}
	at := func(c cellRef) *core.PageID { return &prev[int(c.Channel)*L+int(c.Column)] }
	var n tally
	for _, c := range cleared {
		nid := d.RemapPage(c.Page)
		if nid == core.None {
			n.Evicted++
		}
		*at(c) = nid
	}
	for _, c := range placed {
		switch {
		case *at(c) == c.Page:
			n.Unchanged++
		case c.Page == added:
			n.Added++
		default:
			n.Moved++
		}
	}
	return n
}

// applyDelta replays an incremental Delta against a snapshot of the pre-edit
// grid: clear the vacated cells (checking they held the pages the log
// order assigns them), remap every surviving ID, write the placed cells
// into empty slots. The result must reproduce the post-edit program
// exactly — the Delta is a complete description of the edit, which is
// what lets the broadcast layer patch live state instead of diffing two
// grids.
func applyDelta(t *testing.T, step int, old *core.Program, d *Delta, a annotated, want *core.Program) {
	t.Helper()
	type cell struct{ ch, col int32 }
	grid := make(map[cell]core.PageID, old.Filled())
	for ch := 0; ch < old.Channels(); ch++ {
		for col := 0; col < old.Length(); col++ {
			if id := old.At(ch, col); id != core.None {
				grid[cell{int32(ch), int32(col)}] = id
			}
		}
	}
	for _, c := range a.cleared {
		got, ok := grid[cell{c.Channel, c.Column}]
		if !ok || got != c.Page {
			t.Fatalf("step %d: cleared cell (%d,%d) advertises page %d, grid holds %d",
				step, c.Channel, c.Column, c.Page, got)
		}
		delete(grid, cell{c.Channel, c.Column})
	}
	for k, id := range grid {
		nid := d.RemapPage(id)
		if nid == core.None {
			t.Fatalf("step %d: surviving cell (%d,%d) page %d remaps to None", step, k.ch, k.col, id)
		}
		grid[k] = nid
	}
	for _, c := range a.placed {
		if prev, ok := grid[cell{c.Channel, c.Column}]; ok {
			t.Fatalf("step %d: placed cell (%d,%d) already holds %d", step, c.Channel, c.Column, prev)
		}
		grid[cell{c.Channel, c.Column}] = c.Page
	}
	if len(grid) != want.Filled() {
		t.Fatalf("step %d: delta application yields %d cells, want %d", step, len(grid), want.Filled())
	}
	for ch := 0; ch < want.Channels(); ch++ {
		for col := 0; col < want.Length(); col++ {
			wantID := want.At(ch, col)
			gotID, ok := grid[cell{int32(ch), int32(col)}]
			if !ok {
				gotID = core.None
			}
			if gotID != wantID {
				t.Fatalf("step %d: delta-applied cell (%d,%d) = %d, want %d", step, ch, col, gotID, wantID)
			}
		}
	}
}

func checkAccounting(t *testing.T, step int, d *Delta, a annotated) {
	t.Helper()
	switch d.Kind {
	case KindNone, KindRebuild:
		if d.Cleared != nil || d.Placed != nil {
			t.Fatalf("step %d: %v delta carries cell lists", step, d.Kind)
		}
	default:
		if d.ClearedCells != len(d.Cleared) || d.PlacedCells != len(d.Placed) {
			t.Fatalf("step %d: cell counts %d/%d disagree with lists %d/%d",
				step, d.ClearedCells, d.PlacedCells, len(d.Cleared), len(d.Placed))
		}
		if a.Unchanged+a.Moved+a.Added != d.PlacedCells {
			t.Fatalf("step %d: unchanged %d + moved %d + added %d != placed %d",
				step, a.Unchanged, a.Moved, a.Added, d.PlacedCells)
		}
		if a.Evicted > d.ClearedCells {
			t.Fatalf("step %d: evicted %d > cleared %d", step, a.Evicted, d.ClearedCells)
		}
	}
}

// checkExactAccounting pins the counts account derives from the log-order
// annotation against an oracle that reads only the grids: the pre-edit
// grid, remapped through RemapPage, diffed against the post-edit grid at
// every placed and cleared position. A placed cell is unchanged when it
// holds the remapped page it held before, added when its page has no
// pre-edit identity, and moved otherwise; a cleared cell is evicted when
// its pre-edit page was retired.
func checkExactAccounting(t *testing.T, step int, before, after *core.Program, d *Delta, a annotated) {
	t.Helper()
	born := make([]bool, after.GroupSet().Pages()) // post-edit IDs with no pre-edit page
	for i := range born {
		born[i] = true
	}
	for id := 0; id < before.GroupSet().Pages(); id++ {
		if nid := d.RemapPage(core.PageID(id)); nid != core.None {
			born[nid] = false
		}
	}
	remapped := func(c pamad.Cell) core.PageID {
		id := before.At(int(c.Channel), int(c.Column))
		if id == core.None {
			return core.None
		}
		return d.RemapPage(id)
	}
	var want tally
	for _, c := range d.Placed {
		switch page := after.At(int(c.Channel), int(c.Column)); {
		case remapped(c) == page:
			want.Unchanged++
		case born[page]:
			want.Added++
		default:
			want.Moved++
		}
	}
	for _, c := range d.Cleared {
		if remapped(c) == core.None {
			want.Evicted++
		}
	}
	if a.tally != want {
		t.Fatalf("step %d (%v): unchanged/moved/added/evicted = %d/%d/%d/%d, oracle %d/%d/%d/%d",
			step, d.Kind, a.Unchanged, a.Moved, a.Added, a.Evicted, want.Unchanged, want.Moved, want.Added, want.Evicted)
	}
}

// TestEngineMatchesScratchUnderEditSequences is the tentpole differential
// gate: drive one engine through long random edit sequences — pages added
// and retired across all groups, deadlines tightened and relaxed, the
// channel budget resized — and after every single edit require the live
// program to be bit-identical to pamad placement rerun from scratch on the
// edited instance, the Delta to reproduce the edit exactly when applied to
// the pre-edit grid, and the program to stay paper-valid.
func TestEngineMatchesScratchUnderEditSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kinds := map[Kind]int{}
	for run := 0; run < 8; run++ {
		groups := make([]core.Group, 1+rng.Intn(4))
		tt := 2 + rng.Intn(4)
		for i := range groups {
			groups[i] = core.Group{Time: tt, Count: 2 + rng.Intn(20)}
			tt *= 2
		}
		gs := core.MustGroupSet(groups)
		nReal := 1 + rng.Intn(8)
		eng, err := New(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		gridsEqual(t, -1, eng.Program(), scratch(t, gs, nReal))

		for step := 0; step < 60; step++ {
			before := eng.Snapshot()
			gsOld, sOld := eng.GroupSet(), eng.Frequencies()
			var d *Delta
			var evErr error
			switch rng.Intn(5) {
			case 0:
				d, evErr = eng.AddPage(rng.Intn(eng.GroupSet().Len()))
			case 1:
				g := rng.Intn(eng.GroupSet().Len())
				if eng.GroupSet().Group(g).Count == 1 {
					continue
				}
				d, evErr = eng.RetirePage(g)
			case 2:
				gsCur := eng.GroupSet()
				t0 := gsCur.Group(0).Time
				tNew := t0 * 2
				if rng.Intn(2) == 0 && t0%2 == 0 {
					tNew = t0 / 2
				}
				if gsCur.Len() > 1 && (tNew >= gsCur.Group(1).Time || gsCur.Group(1).Time%tNew != 0) {
					continue
				}
				d, evErr = eng.SetExpectedTime(0, tNew)
			case 3:
				d, evErr = eng.SetChannels(1 + rng.Intn(8))
			default:
				d, evErr = eng.SetChannels(eng.Channels())
			}
			if evErr != nil {
				t.Fatalf("run %d step %d: %v", run, step, evErr)
			}
			kinds[d.Kind]++
			if d.Seq != eng.seq {
				t.Fatalf("run %d step %d: delta seq %d, engine seq %d", run, step, d.Seq, eng.seq)
			}
			want := scratch(t, eng.GroupSet(), eng.Channels())
			gridsEqual(t, step, eng.Program(), want)
			a := annotateEdit(d, gsOld, sOld, eng)
			checkAccounting(t, step, d, a)
			checkExactAccounting(t, step, before, eng.Program(), d, a)
			if d.Kind == KindSuffix || d.Kind == KindAppend {
				applyDelta(t, step, before, d, a, want)
			}
			if eng.Program().Filled() != eng.Frequencies().TotalSlots(eng.GroupSet()) {
				t.Fatalf("run %d step %d: live program holds %d cells, want F=%d",
					run, step, eng.Program().Filled(), eng.Frequencies().TotalSlots(eng.GroupSet()))
			}
		}
	}
	for _, k := range []Kind{KindNone, KindAppend, KindSuffix, KindRebuild} {
		if kinds[k] == 0 {
			t.Fatalf("edit sequences never exercised %v (distribution %v)", k, kinds)
		}
	}
}

// TestDeltaRemap pins the O(1) ID remap arithmetic for both edit shapes.
func TestDeltaRemap(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 3}})
	eng, err := New(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Add to group 0: new page takes ID 3, old IDs 3..5 shift to 4..6.
	d, err := eng.AddPage(0)
	if err != nil {
		t.Fatal(err)
	}
	for old, want := range map[core.PageID]core.PageID{0: 0, 1: 1, 2: 2, 3: 4, 4: 5, 5: 6} {
		if got := d.RemapPage(old); got != want {
			t.Errorf("add: RemapPage(%d) = %d, want %d", old, got, want)
		}
	}
	if got := d.RemapPage(6); got != core.None {
		t.Errorf("add: RemapPage(6) = %d, want None for out-of-range old ID", got)
	}
	// Retire last page of group 0 (old ID 3): IDs above shift down.
	d, err = eng.RetirePage(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.RemapPage(3); got != core.None {
		t.Errorf("retire: RemapPage(3) = %d, want None for the retired page", got)
	}
	for old, want := range map[core.PageID]core.PageID{0: 0, 2: 2, 4: 3, 6: 5} {
		if got := d.RemapPage(old); got != want {
			t.Errorf("retire: RemapPage(%d) = %d, want %d", old, got, want)
		}
	}
}

// TestEngineKinds pins the classification: a no-op budget change is
// KindNone, resizing is KindRebuild, retiring from the last group replays
// only that group, and the last-group append hits the O(S_h) fast path
// whenever the frequency vector survives.
func TestEngineKinds(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 30}, {Time: 8, Count: 40}, {Time: 16, Count: 50}})
	nReal := 6
	eng, err := New(gs, nReal)
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.SetChannels(nReal)
	if err != nil || d.Kind != KindNone {
		t.Fatalf("SetChannels(same) -> %v, %v; want KindNone", d.Kind, err)
	}
	d, err = eng.SetChannels(nReal + 2)
	if err != nil || d.Kind != KindRebuild {
		t.Fatalf("SetChannels(+2) -> %v, %v; want KindRebuild", d.Kind, err)
	}
	if eng.Channels() != nReal+2 {
		t.Fatalf("Channels() = %d after resize, want %d", eng.Channels(), nReal+2)
	}
	gridsEqual(t, 0, eng.Program(), scratch(t, eng.GroupSet(), eng.Channels()))

	// Find an instance state where retiring from the last group keeps
	// t_major: drive a few retire events and check FromGroup.
	d, err = eng.RetirePage(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind == KindSuffix && d.FromGroup != 2 {
		t.Fatalf("retire from last group replayed from group %d", d.FromGroup)
	}
	gridsEqual(t, 1, eng.Program(), scratch(t, eng.GroupSet(), eng.Channels()))
	gsOld, sOld := eng.GroupSet(), eng.Frequencies()
	d, err = eng.AddPage(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind == KindAppend {
		if len(d.Placed) != eng.Frequencies()[2] {
			t.Fatalf("append placed %d cells, want S_h=%d", len(d.Placed), eng.Frequencies()[2])
		}
		if a := annotateEdit(d, gsOld, sOld, eng); a.Added != len(d.Placed) || a.Moved != 0 || a.Evicted != 0 {
			t.Fatalf("append accounting %+v, want pure Added", a.tally)
		}
	}
	gridsEqual(t, 2, eng.Program(), scratch(t, eng.GroupSet(), eng.Channels()))
}

// TestEngineRejects pins the engine's input validation.
func TestEngineRejects(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 1}, {Time: 4, Count: 2}})
	eng, err := New(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddPage(-1); err == nil {
		t.Error("AddPage(-1) accepted")
	}
	if _, err := eng.RetirePage(5); err == nil {
		t.Error("RetirePage(5) accepted")
	}
	if _, err := eng.RetirePage(0); err == nil {
		t.Error("retiring a group's only page accepted")
	}
	if _, err := eng.SetExpectedTime(0, 3); err == nil {
		t.Error("SetExpectedTime breaking the divisor chain accepted")
	}
	if _, err := eng.SetChannels(0); err == nil {
		t.Error("SetChannels(0) accepted")
	}
	// Failed edits must leave the engine untouched.
	gridsEqual(t, 0, eng.Program(), scratch(t, gs, 2))
	if eng.seq != 0 {
		t.Errorf("failed edits advanced Seq to %d", eng.seq)
	}
}

// TestKindString covers the report labels.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNone: "none", KindAppend: "append", KindSuffix: "suffix", KindRebuild: "rebuild", Kind(9): "Kind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
