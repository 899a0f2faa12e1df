package pamad

import (
	"math/rand"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// progsEqual compares two programs cell for cell.
func progsEqual(t *testing.T, got, want *core.Program) {
	t.Helper()
	if got.Channels() != want.Channels() || got.Length() != want.Length() {
		t.Fatalf("grid shape %dx%d, want %dx%d",
			got.Channels(), got.Length(), want.Channels(), want.Length())
	}
	if got.Filled() != want.Filled() {
		t.Fatalf("Filled = %d, want %d", got.Filled(), want.Filled())
	}
	for ch := 0; ch < want.Channels(); ch++ {
		for slot := 0; slot < want.Length(); slot++ {
			if got.At(ch, slot) != want.At(ch, slot) {
				t.Fatalf("cell (%d,%d) = %d, want %d\nfast:\n%s\nreference:\n%s",
					ch, slot, got.At(ch, slot), want.At(ch, slot), got, want)
			}
		}
	}
}

// TestPlaceEvenlyMatchesReference pins the chain-skipping placement
// byte-for-byte (grids and stats) against the literal Algorithm 4 scans on
// randomized instances across tight and roomy channel budgets.
func TestPlaceEvenlyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		gs := randomGroupSet(rng)
		nReal := 1 + rng.Intn(12)
		s, _, err := Frequencies(gs, nReal)
		if err != nil {
			t.Fatalf("Frequencies(%v, %d): %v", gs, nReal, err)
		}
		fast, fastStats, err := PlaceEvenly(gs, s, nReal)
		if err != nil {
			t.Fatalf("PlaceEvenly(%v, %v, %d): %v", gs, s, nReal, err)
		}
		ref, refStats, err := placeEvenlyReference(gs, s, nReal)
		if err != nil {
			t.Fatalf("placeEvenlyReference(%v, %v, %d): %v", gs, s, nReal, err)
		}
		progsEqual(t, fast, ref)
		if fastStats != refStats {
			t.Fatalf("stats = %+v, want %+v (gs=%v, s=%v, n=%d)", fastStats, refStats, gs, s, nReal)
		}
	}
}

// TestColChainFind exercises the union-find successor chain directly:
// saturating columns re-routes find past them, with the sentinel root
// reported when everything at or after the query is full.
func TestColChainFind(t *testing.T) {
	cc := newColChain(5)
	if got := cc.find(2); got != 2 {
		t.Errorf("find(2) = %d, want 2 (all free)", got)
	}
	cc.markFull(2)
	cc.markFull(3)
	if got := cc.find(2); got != 4 {
		t.Errorf("find(2) = %d, want 4 after filling 2,3", got)
	}
	cc.markFull(4)
	if got := cc.find(2); got != 5 {
		t.Errorf("find(2) = %d, want sentinel 5 after filling 2..4", got)
	}
	if got := cc.find(0); got != 0 {
		t.Errorf("find(0) = %d, want 0 (still free)", got)
	}
	cc.markFull(0)
	cc.markFull(1)
	if got := cc.find(0); got != 5 {
		t.Errorf("find(0) = %d, want sentinel 5 with every column full", got)
	}
}

// checkWindowEnds pins windowStep to the division it replaces: window k
// of a page ends at core.CeilDiv(tMajor*(k+1), si), for every k.
func checkWindowEnds(t *testing.T, tMajor, si int) {
	t.Helper()
	w := newWindowStep(tMajor, si)
	end, def := 0, 0
	for k := 0; k < si; k++ {
		end, def = w.next(end, def)
		if got, want := end, core.CeilDiv(tMajor*(k+1), si); got != want {
			t.Fatalf("t_major=%d S=%d: window %d ends at %d, want ceil(%d*%d/%d) = %d",
				tMajor, si, k, got, tMajor, k+1, si, want)
		}
	}
}

// TestWindowEnds covers the shapes of t_major against S_i: a cycle
// shorter than the page's appearance count (empty windows), an exact
// multiple, S_i = 1, and a t_major whose products dwarf S_i.
func TestWindowEnds(t *testing.T) {
	for _, tc := range []struct{ tMajor, si int }{
		{3, 7}, {1, 5}, {6, 7},
		{12, 4}, {24, 24}, {1 << 20, 1 << 10},
		{1, 1}, {17, 1}, {1 << 40, 1},
		{1<<40 + 12345, 977}, {1<<33 - 1, 4096}, {999_983, 1000},
	} {
		checkWindowEnds(t, tc.tMajor, tc.si)
	}
}

// TestFindFreeColumnCyclicWrap covers the wrap path of the overflow-reset
// scan: starting at or past the last column must continue from column 0.
func TestFindFreeColumnCyclicWrap(t *testing.T) {
	free := []int{0, 2, 0, 0}
	if col, ok := findFreeColumnCyclic(free, 2, 4); !ok || col != 1 {
		t.Errorf("from=2: (%d,%v), want (1,true) via wrap", col, ok)
	}
	if col, ok := findFreeColumnCyclic(free, 4, 4); !ok || col != 1 {
		t.Errorf("from=t_major: (%d,%v), want (1,true) — overflow reset before first probe", col, ok)
	}
	if col, ok := findFreeColumnCyclic([]int{0, 0}, 1, 2); ok {
		t.Errorf("all-full scan returned column %d, want not found", col)
	}
	if col, ok := findFreeColumnCyclic(free, 1, 4); !ok || col != 1 {
		t.Errorf("from=1: (%d,%v), want (1,true) without wrapping", col, ok)
	}
}

// TestPlaceEvenlySpillEquivalence forces the spill path (scarce channels,
// frequencies that crowd the early windows) and checks fast and reference
// placements still agree, including the Spills counter.
func TestPlaceEvenlySpillEquivalence(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}})
	for nReal := 1; nReal <= 4; nReal++ {
		s, _, err := Frequencies(gs, nReal)
		if err != nil {
			t.Fatal(err)
		}
		fast, fastStats, err := PlaceEvenly(gs, s, nReal)
		if err != nil {
			t.Fatal(err)
		}
		ref, refStats, err := placeEvenlyReference(gs, s, nReal)
		if err != nil {
			t.Fatal(err)
		}
		progsEqual(t, fast, ref)
		if fastStats != refStats {
			t.Fatalf("n=%d: stats = %+v, want %+v", nReal, fastStats, refStats)
		}
	}
}

// TestPlaceEvenlySpreadsManualFrequencies drives PlaceEvenly with a
// hand-picked frequency vector (not one Frequencies would emit) so the
// window geometry differs from the optimizer's choices.
func TestPlaceEvenlySpreadsManualFrequencies(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 8, Count: 6}})
	s := delaymodel.Frequencies{6, 2}
	fast, fastStats, err := PlaceEvenly(gs, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, refStats, err := placeEvenlyReference(gs, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	progsEqual(t, fast, ref)
	if fastStats != refStats {
		t.Fatalf("stats = %+v, want %+v", fastStats, refStats)
	}
}
