package pamad

import (
	"math/rand"
	"slices"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// earliestChangedGroup mirrors the replan engine's classification: the first
// group whose shape or frequency differs between the two instances.
func earliestChangedGroup(gsOld, gsNew *core.GroupSet, sOld, sNew delaymodel.Frequencies) int {
	h := gsNew.Len()
	for i := 0; i < h; i++ {
		if gsOld.Group(i) != gsNew.Group(i) || sOld[i] != sNew[i] {
			return i
		}
	}
	return h
}

// mutateGroups applies one random single-group edit (count +1, count -1, or
// a divisor-chain-preserving time change) and returns the edited instance,
// or nil when the rolled edit is not applicable.
func mutateGroups(rng *rand.Rand, gs *core.GroupSet) *core.GroupSet {
	groups := gs.Groups()
	g := rng.Intn(len(groups))
	switch rng.Intn(3) {
	case 0:
		groups[g].Count++
	case 1:
		if groups[g].Count == 1 {
			return nil
		}
		groups[g].Count--
	default:
		// Halve the first group's time: divides every later time, keeps
		// the chain strictly increasing.
		if groups[0].Time%2 != 0 {
			return nil
		}
		groups[0].Time /= 2
	}
	gsNew, err := core.NewGroupSet(groups)
	if err != nil {
		return nil
	}
	return gsNew
}

// suffixCells returns the placement-log entries of groups g..h-1: the
// cells a ReplayFrom(g) clears, in placement order.
func suffixCells(p *Placer, g int) []Cell {
	if g < 0 || g >= len(p.marks) {
		return nil
	}
	return p.cells[p.marks[g].cells:]
}

// TestPlacerMatchesPlaceEvenly: the checkpointed Placer's from-scratch build
// must be bit-identical (grid and stats) to PlaceEvenly for the same input.
func TestPlacerMatchesPlaceEvenly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		gs := randomGroupSet(rng)
		nReal := 1 + rng.Intn(12)
		s, _, err := Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlacer(gs, s, nReal)
		if err != nil {
			t.Fatalf("NewPlacer(%v, %v, %d): %v", gs, s, nReal, err)
		}
		want, wantStats, err := PlaceEvenly(gs, s, nReal)
		if err != nil {
			t.Fatal(err)
		}
		progsEqual(t, p.Program(), want)
		if p.Stats() != wantStats {
			t.Fatalf("stats = %+v, want %+v", p.Stats(), wantStats)
		}
		if got := len(suffixCells(p, 0)); got != want.Filled() {
			t.Fatalf("placement log holds %d cells, want %d", got, want.Filled())
		}
	}
}

// TestPlacerReplayFromMatchesScratch: after a random single-group edit, a
// suffix replay from the earliest changed group must land on a program
// bit-identical to PlaceEvenly rerun from scratch on the edited instance —
// including spill accounting — and report exactly the replayed cells.
func TestPlacerReplayFromMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	replays := 0
	for trial := 0; trial < 600; trial++ {
		gs := randomGroupSet(rng)
		nReal := 1 + rng.Intn(12)
		s, _, err := Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlacer(gs, s, nReal)
		if err != nil {
			t.Fatal(err)
		}
		gsNew := mutateGroups(rng, gs)
		if gsNew == nil {
			continue
		}
		sNew, _, err := Frequencies(gsNew, nReal)
		if err != nil {
			continue
		}
		g := earliestChangedGroup(gs, gsNew, s, sNew)
		wantCleared := slices.Clone(suffixCells(p, g))
		cleared, placed, err := p.ReplayFrom(g, gsNew, sNew, nil)
		if sNew.MajorCycle(gsNew, nReal) != s.MajorCycle(gs, nReal) {
			if err == nil {
				t.Fatalf("trial %d: ReplayFrom accepted a t_major change", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: ReplayFrom(%d): %v", trial, g, err)
		}
		replays++
		want, wantStats, err := PlaceEvenly(gsNew, sNew, nReal)
		if err != nil {
			t.Fatal(err)
		}
		progsEqual(t, p.Program(), want)
		if p.Stats() != wantStats {
			t.Fatalf("trial %d: stats = %+v, want %+v", trial, p.Stats(), wantStats)
		}
		if !slices.Equal(placed, suffixCells(p, g)) {
			t.Fatalf("trial %d: ReplayFrom returned %d placed cells, not the %d of the suffix log",
				trial, len(placed), len(suffixCells(p, g)))
		}
		if !slices.Equal(cleared, wantCleared) {
			t.Fatalf("trial %d: ReplayFrom returned %d cleared cells, not the %d the suffix log held",
				trial, len(cleared), len(wantCleared))
		}
	}
	if replays < 100 {
		t.Fatalf("only %d same-t_major replays exercised; weaken the filter", replays)
	}
}

// TestPlacerReplaySequence drives one Placer through a chain of edits — each
// a replay from the earliest changed group — checking bit-identity against
// from-scratch placement at every step. This is the live-engine usage
// pattern: state carried across many edits, not reset per edit.
func TestPlacerReplaySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 12}, {Time: 8, Count: 20}, {Time: 16, Count: 28}})
	nReal := 5
	s, _, err := Frequencies(gs, nReal)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlacer(gs, s, nReal)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for trial := 0; trial < 400; trial++ {
		gsNew := mutateGroups(rng, gs)
		if gsNew == nil {
			continue
		}
		sNew, _, err := Frequencies(gsNew, nReal)
		if err != nil || sNew.MajorCycle(gsNew, nReal) != s.MajorCycle(gs, nReal) {
			continue
		}
		g := earliestChangedGroup(gs, gsNew, s, sNew)
		if _, _, err := p.ReplayFrom(g, gsNew, sNew, nil); err != nil {
			t.Fatalf("step %d: ReplayFrom(%d): %v", steps, g, err)
		}
		want, _, err := PlaceEvenly(gsNew, sNew, nReal)
		if err != nil {
			t.Fatal(err)
		}
		progsEqual(t, p.Program(), want)
		gs, s = gsNew, sNew
		steps++
	}
	if steps < 50 {
		t.Fatalf("only %d edit steps exercised", steps)
	}
}

// TestPlacerAppendLast: appending a page to the last group with the
// frequency vector and t_major unchanged must place exactly S_h cells and
// land bit-identical to a from-scratch placement of the grown instance.
func TestPlacerAppendLast(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	appends := 0
	for trial := 0; trial < 600; trial++ {
		gs := randomGroupSet(rng)
		nReal := 1 + rng.Intn(12)
		s, _, err := Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		groups := gs.Groups()
		groups[len(groups)-1].Count++
		gsNew := core.MustGroupSet(groups)
		sNew, _, err := Frequencies(gsNew, nReal)
		if err != nil || !sNew.Equal(s) || sNew.MajorCycle(gsNew, nReal) != s.MajorCycle(gs, nReal) {
			continue
		}
		p, err := NewPlacer(gs, s, nReal)
		if err != nil {
			t.Fatal(err)
		}
		placed, err := p.AppendLast(gsNew)
		if err != nil {
			t.Fatalf("trial %d: AppendLast: %v", trial, err)
		}
		if len(placed) != s[len(s)-1] {
			t.Fatalf("trial %d: AppendLast placed %d cells, want S_h=%d", trial, len(placed), s[len(s)-1])
		}
		want, wantStats, err := PlaceEvenly(gsNew, sNew, nReal)
		if err != nil {
			t.Fatal(err)
		}
		progsEqual(t, p.Program(), want)
		if p.Stats() != wantStats {
			t.Fatalf("trial %d: stats = %+v, want %+v", trial, p.Stats(), wantStats)
		}
		appends++
	}
	if appends < 100 {
		t.Fatalf("only %d appends exercised", appends)
	}
}

// TestPlacerRejects pins the Placer's contract errors: increasing frequency
// vectors (not a divisor chain), changed prefixes, and t_major drift all
// refuse to replay rather than silently corrupt the placement.
func TestPlacerRejects(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 2}})
	if _, err := NewPlacer(gs, delaymodel.Frequencies{1, 2}, 2); err == nil {
		t.Fatal("NewPlacer accepted an increasing frequency vector")
	}
	s, _, err := Frequencies(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlacer(gs, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix change below the replay point must be rejected.
	groups := gs.Groups()
	groups[0].Count++
	gsNew := core.MustGroupSet(groups)
	sNew, _, err := Frequencies(gsNew, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.ReplayFrom(1, gsNew, sNew, nil); err == nil {
		t.Fatal("ReplayFrom(1) accepted a group-0 change")
	}
	if _, _, err := p.ReplayFrom(-1, gs, s, nil); err == nil {
		t.Fatal("ReplayFrom(-1) accepted")
	}
	if _, _, err := p.ReplayFrom(3, gs, s, nil); err == nil {
		t.Fatal("ReplayFrom past the group count accepted")
	}
}

// TestPlaceEvenlyAllocs pins PlaceEvenly's allocation count: the placement
// path allocates the program, two column arrays, the sort order and its
// closure machinery — and nothing per page or per cell.
func TestPlaceEvenlyAllocs(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{
		{Time: 4, Count: 400}, {Time: 8, Count: 400}, {Time: 16, Count: 400}, {Time: 32, Count: 400},
	})
	nReal := core.CeilDiv(gs.MinChannels(), 5)
	s, _, err := Frequencies(gs, nReal)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := PlaceEvenly(gs, s, nReal); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 8 on go1.x linux/amd64: program struct + grid, freeInCol,
	// chain, order slice, sort.SliceStable closure + reflect swapper.
	const maxAllocs = 10
	if allocs > maxAllocs {
		t.Fatalf("PlaceEvenly allocates %.0f times per run, want <= %d", allocs, maxAllocs)
	}
}

// TestPlacerRebuiltKeepsLogCapacity: a Placer rebuilt from another places
// exactly what a from-scratch placement does and starts with its
// predecessor's log capacity, so an instance that grows back to its size
// before the rebuild appends without reallocating the log.
func TestPlacerRebuiltKeepsLogCapacity(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 12}, {Time: 8, Count: 20}, {Time: 16, Count: 28}})
	for _, nReal := range []int{4, 6} {
		s, _, err := Frequencies(gs, 5)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlacer(gs, s, 5)
		if err != nil {
			t.Fatal(err)
		}
		// A log that grew past F since p was built.
		p.cells = append(make([]Cell, 0, 2*cap(p.cells)), p.cells...)
		sNew, _, err := Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		q, err := p.Rebuilt(gs, sNew, nReal)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := PlaceEvenly(gs, sNew, nReal)
		if err != nil {
			t.Fatal(err)
		}
		progsEqual(t, q.Program(), want)
		if q.Stats() != wantStats {
			t.Fatalf("%d channels: stats = %+v, want %+v", nReal, q.Stats(), wantStats)
		}
		if cap(q.cells) < cap(p.cells) {
			t.Fatalf("%d channels: rebuilt log capacity %d, predecessor's %d", nReal, cap(q.cells), cap(p.cells))
		}
	}
}
