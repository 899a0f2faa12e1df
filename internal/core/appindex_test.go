package core

import (
	"math/rand"
	"testing"
)

// randomProgram fills a fraction of a channels x length grid with random
// pages (duplicates across channels included, to exercise column dedup).
func randomProgram(t *testing.T, rng *rand.Rand, groups []Group, channels, length int) *Program {
	t.Helper()
	gs, err := NewGroupSet(groups)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProgram(gs, channels, length)
	if err != nil {
		t.Fatal(err)
	}
	n := gs.Pages()
	for ch := 0; ch < channels; ch++ {
		for slot := 0; slot < length; slot++ {
			switch rng.Intn(4) {
			case 0: // leave empty
			case 1: // duplicate the page of a lower channel in this column
				if ch > 0 {
					if id := p.At(rng.Intn(ch), slot); id != None {
						if err := p.Place(ch, slot, id); err != nil {
							t.Fatal(err)
						}
						continue
					}
				}
				fallthrough
			default:
				if err := p.Place(ch, slot, PageID(rng.Intn(n))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return p
}

// referenceTable is the brute-force appearance table of p: every page's
// distinct columns in ascending order, nil for pages never broadcast.
func referenceTable(p *Program) [][]int {
	table := make([][]int, p.GroupSet().Pages())
	for slot := 0; slot < p.Length(); slot++ {
		for ch := 0; ch < p.Channels(); ch++ {
			id := p.At(ch, slot)
			if id == None {
				continue
			}
			if cols := table[id]; len(cols) == 0 || cols[len(cols)-1] != slot {
				table[id] = append(cols, slot)
			}
		}
	}
	return table
}

var indexTestGroups = []Group{{Time: 4, Count: 7}, {Time: 8, Count: 9}, {Time: 16, Count: 4}}

// TestAppearanceIndexMatchesTable: the CSR index and a brute-force [][]int
// table describe the same appearance structure on random programs,
// including pages that never appear and multi-channel duplicate columns.
func TestAppearanceIndexMatchesTable(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(t, rng, indexTestGroups, 1+rng.Intn(5), 1+rng.Intn(40))
		ix := p.AppearanceIndex()
		table := referenceTable(p)
		if ix.Pages() != len(table) {
			t.Fatalf("seed %d: index covers %d pages, table %d", seed, ix.Pages(), len(table))
		}
		if ix.Length() != p.Length() {
			t.Fatalf("seed %d: index length %d, program %d", seed, ix.Length(), p.Length())
		}
		for id := 0; id < ix.Pages(); id++ {
			cols := ix.Columns(PageID(id))
			if len(cols) != len(table[id]) || ix.Count(PageID(id)) != len(table[id]) {
				t.Fatalf("seed %d page %d: %d columns vs table %d", seed, id, len(cols), len(table[id]))
			}
			for k, c := range cols {
				if int(c) != table[id][k] {
					t.Fatalf("seed %d page %d: column %d is %d, table %d", seed, id, k, c, table[id][k])
				}
				if k > 0 && cols[k-1] >= c {
					t.Fatalf("seed %d page %d: columns not strictly ascending: %v", seed, id, cols)
				}
			}
		}
	}
}

// TestProgramAppearancesMatchesTable: the index-routed
// Program.Appearances(id) equals the brute-force table's row for a
// fuzz-style random program.
func TestProgramAppearancesMatchesTable(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(t, rng, indexTestGroups, 1+rng.Intn(4), 1+rng.Intn(30))
		table := referenceTable(p)
		for id := 0; id < p.GroupSet().Pages(); id++ {
			got := p.Appearances(PageID(id))
			if len(got) != len(table[id]) {
				t.Fatalf("seed %d page %d: Appearances %v vs table %v", seed, id, got, table[id])
			}
			for k := range got {
				if got[k] != table[id][k] {
					t.Fatalf("seed %d page %d: Appearances %v vs table %v", seed, id, got, table[id])
				}
			}
		}
	}
}

// TestAppearanceIndexTableContract: the index's contract for a page never
// broadcast — an empty, non-nil column range and a full-cycle worst gap.
func TestAppearanceIndexTableContract(t *testing.T) {
	gs := MustGroupSet([]Group{{Time: 4, Count: 3}})
	p, err := NewProgram(gs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Place(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	ix := p.AppearanceIndex()
	if got := ix.Columns(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("index Columns(0) = %v, want [1]", got)
	}
	if got := ix.Columns(1); got == nil || len(got) != 0 {
		t.Errorf("index Columns for absent page = %v, want empty non-nil", got)
	}
	if got := ix.WorstGap(1); got != p.Length() {
		t.Errorf("WorstGap of absent page = %d, want cycle length %d", got, p.Length())
	}
	if got := ix.WorstGap(0); got != p.Length() {
		t.Errorf("WorstGap of single-appearance page = %d, want %d", got, p.Length())
	}
}

// TestAppendColumns: AppendColumns extends dst rather than replacing it.
func TestAppendColumns(t *testing.T) {
	gs := MustGroupSet([]Group{{Time: 4, Count: 2}})
	p, err := NewProgram(gs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{0, 2} {
		if err := p.Place(0, slot, 1); err != nil {
			t.Fatal(err)
		}
	}
	ix := p.AppearanceIndex()
	got := ix.AppendColumns([]int{-1}, 1)
	want := []int{-1, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("AppendColumns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendColumns = %v, want %v", got, want)
		}
	}
}
