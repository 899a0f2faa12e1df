package conformance_test

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/mpb"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
)

func geometric(t *testing.T, t1, c int, counts []int) *core.GroupSet {
	t.Helper()
	gs, err := core.Geometric(t1, c, counts)
	if err != nil {
		t.Fatalf("Geometric: %v", err)
	}
	return gs
}

func TestMinChannelLawMatchesCore(t *testing.T) {
	cases := []*core.GroupSet{
		geometric(t, 4, 2, []int{3, 5, 9}),
		geometric(t, 2, 3, []int{1, 2, 3, 4}),
		geometric(t, 8, 2, []int{16, 8, 4, 2}),
		core.MustGroupSet([]core.Group{{Time: 5, Count: 7}}),
	}
	for _, gs := range cases {
		if got, want := conformance.MinChannelLaw(gs), gs.MinChannels(); got != want {
			t.Errorf("%v: MinChannelLaw=%d, core.MinChannels=%d", gs, got, want)
		}
	}
}

func TestOraclesAcceptSUSC(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatalf("susc.Build: %v", err)
	}
	if err := conformance.ValidFromAnyStart(prog); err != nil {
		t.Errorf("ValidFromAnyStart: %v", err)
	}
	if err := conformance.ChannelLaw(prog); err != nil {
		t.Errorf("ChannelLaw: %v", err)
	}
	if err := conformance.PeriodicSpacing(prog); err != nil {
		t.Errorf("PeriodicSpacing: %v", err)
	}
	if err := conformance.SlotOccupancy(prog); err != nil {
		t.Errorf("SlotOccupancy: %v", err)
	}
	if err := conformance.MissFreeLaw(prog, 0); err != nil {
		t.Errorf("MissFreeLaw(0): %v", err)
	}
}

func TestValidFromAnyStartRejectsCorruption(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatalf("susc.Build: %v", err)
	}
	// Erase one appearance of page 0 (t=4): the resulting 2*t gap must trip
	// the oracle.
	cols := prog.Appearances(0)
	if len(cols) < 2 {
		t.Fatalf("page 0 has %d appearances, need >= 2", len(cols))
	}
	var channel int
	for ch := 0; ch < prog.Channels(); ch++ {
		if prog.At(ch, cols[1]) == 0 {
			channel = ch
		}
	}
	prog.Clear(channel, cols[1])
	if err := conformance.ValidFromAnyStart(prog); err == nil {
		t.Fatal("oracle accepted a program with an erased appearance")
	} else if !errors.Is(err, core.ErrInvalidProgram) {
		t.Fatalf("error %v does not wrap core.ErrInvalidProgram", err)
	}
	if err := conformance.PeriodicSpacing(prog); err == nil {
		t.Fatal("PeriodicSpacing accepted a program with an erased appearance")
	}
	if err := conformance.SlotOccupancy(prog); err == nil {
		t.Fatal("SlotOccupancy accepted a program with an erased appearance")
	}
}

func TestValidFromAnyStartRejectsMissingPage(t *testing.T) {
	gs := geometric(t, 2, 2, []int{1, 1})
	prog, err := core.NewProgram(gs, 2, 4)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	// Page 0 every 2 slots, page 1 never broadcast.
	for _, c := range []int{0, 2} {
		if err := prog.Place(0, c, 0); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	if err := conformance.ValidFromAnyStart(prog); err == nil {
		t.Fatal("oracle accepted a program missing page 1")
	}
}

func TestValidFromAnyStartRejectsLateFirstAppearance(t *testing.T) {
	// A single page with t=2 broadcast only at slot 3 of a length-4 cycle:
	// the gap is exactly L=4 > t, and the first appearance is past t. Both
	// violations must be caught even though the page does appear.
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 1}})
	prog, err := core.NewProgram(gs, 1, 4)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	if err := prog.Place(0, 3, 0); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := conformance.ValidFromAnyStart(prog); err == nil {
		t.Fatal("oracle accepted a late-first-appearance program")
	}
}

func TestChannelLawVacuousOnInvalid(t *testing.T) {
	// An empty program is invalid, so Theorem 3.1 imposes nothing on it.
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, err := core.NewProgram(gs, 1, 8)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	if err := conformance.ChannelLaw(prog); err != nil {
		t.Errorf("ChannelLaw on invalid program: %v", err)
	}
}

func TestSpillAccountingAcceptsPAMADAndMPB(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	short := gs.MinChannels() - 2
	if short < 1 {
		short = 1
	}

	prog, res, err := pamad.Build(gs, short)
	if err != nil {
		t.Fatalf("pamad.Build: %v", err)
	}
	counts := conformance.PlacementCounts{
		Spills:     res.Placement.Spills,
		EmptySlots: res.Placement.EmptySlots,
	}
	if err := conformance.SpillAccounting(prog, res.Frequencies, counts); err != nil {
		t.Errorf("pamad: SpillAccounting: %v", err)
	}

	mprog, mres, err := mpb.Build(gs, short)
	if err != nil {
		t.Fatalf("mpb.Build: %v", err)
	}
	mcounts := conformance.PlacementCounts{
		Spills:     mres.Placement.Spills,
		EmptySlots: mres.Placement.EmptySlots,
	}
	if err := conformance.SpillAccounting(mprog, mres.Frequencies, mcounts); err != nil {
		t.Errorf("mpb: SpillAccounting: %v", err)
	}
}

func TestSpillAccountingRejectsWrongCounts(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, res, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatalf("pamad.Build: %v", err)
	}
	bad := conformance.PlacementCounts{
		Spills:     res.Placement.Spills,
		EmptySlots: res.Placement.EmptySlots + 1,
	}
	if err := conformance.SpillAccounting(prog, res.Frequencies, bad); err == nil {
		t.Fatal("SpillAccounting accepted an off-by-one EmptySlots")
	}
}

func TestSpillAccountingRejectsMovedCell(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, res, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatalf("pamad.Build: %v", err)
	}
	counts := conformance.PlacementCounts{
		Spills:     res.Placement.Spills,
		EmptySlots: res.Placement.EmptySlots,
	}
	// Hand one of page 1's cells to page 2: the total is unchanged, so
	// only the per-page count can catch it, and page 1 is reported first.
	moved := false
	for cell := 0; cell < prog.Channels()*prog.Length() && !moved; cell++ {
		ch, slot := cell/prog.Length(), cell%prog.Length()
		if prog.At(ch, slot) == 1 {
			prog.Clear(ch, slot)
			if err := prog.Place(ch, slot, 2); err != nil {
				t.Fatal(err)
			}
			moved = true
		}
	}
	if !moved {
		t.Fatal("page 1 not placed")
	}
	err = conformance.SpillAccounting(prog, res.Frequencies, counts)
	if !errors.Is(err, core.ErrInvalidProgram) || !strings.Contains(err.Error(), "page 1 occupies") {
		t.Fatalf("SpillAccounting on a moved cell: %v", err)
	}
}

func TestMissFreeLawRejectsMisses(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatalf("susc.Build: %v", err)
	}
	if err := conformance.MissFreeLaw(prog, 3); err == nil {
		t.Fatal("MissFreeLaw accepted misses on a valid program")
	}
}

func TestExactAvgDelayZeroOnValid(t *testing.T) {
	gs := geometric(t, 4, 2, []int{3, 5, 9})
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatalf("susc.Build: %v", err)
	}
	if d := conformance.ExactAvgDelay(prog); d.Sign() != 0 {
		t.Errorf("valid SUSC program has exact delay %s, want 0", d.RatString())
	}
}

func TestExactAvgDelayHandComputed(t *testing.T) {
	// One page, t=2, broadcast once in a length-4 cycle at slot 0: the
	// single cyclic gap is 4, delay integral (4-2)^2/2 = 2, averaged over
	// n*L = 4 instants: 1/2.
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 1}})
	prog, err := core.NewProgram(gs, 1, 4)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	if err := prog.Place(0, 0, 0); err != nil {
		t.Fatalf("Place: %v", err)
	}
	want := big.NewRat(1, 2)
	if d := conformance.ExactAvgDelay(prog); d.Cmp(want) != 0 {
		t.Errorf("ExactAvgDelay = %s, want %s", d.RatString(), want.RatString())
	}
}
