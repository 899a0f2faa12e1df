package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func fig2GroupSet() *GroupSet {
	return MustGroupSet([]Group{{2, 3}, {4, 5}, {8, 3}})
}

func TestNewProgramValidation(t *testing.T) {
	gs := fig2GroupSet()
	if _, err := NewProgram(nil, 1, 1); err == nil {
		t.Error("nil group set accepted")
	}
	if _, err := NewProgram(gs, 0, 4); err == nil {
		t.Error("0 channels accepted")
	}
	if _, err := NewProgram(gs, 2, 0); err == nil {
		t.Error("0 length accepted")
	}
	// A grid past MaxCells is refused before it is allocated, whether
	// its cell count overflows int or merely exceeds the cap.
	for _, c := range []struct{ channels, length int }{
		{1 << 32, 1 << 32},
		{math.MaxInt, 2},
		{MaxCells/1024 + 1, 1024},
		{1, MaxCells + 1},
	} {
		if _, err := NewProgram(gs, c.channels, c.length); !errors.Is(err, ErrSlotRange) {
			t.Errorf("NewProgram(%d, %d) = %v, want ErrSlotRange", c.channels, c.length, err)
		}
	}
	p, err := NewProgram(gs, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Channels() != 3 || p.Length() != 9 {
		t.Errorf("dimensions = %dx%d, want 3x9", p.Channels(), p.Length())
	}
	if p.Filled() != 0 || p.Occupancy() != 0 {
		t.Error("new program not empty")
	}
	for ch := 0; ch < 3; ch++ {
		for slot := 0; slot < 9; slot++ {
			if p.At(ch, slot) != None {
				t.Fatalf("cell (%d,%d) not None", ch, slot)
			}
		}
	}
}

func TestPlaceAndClear(t *testing.T) {
	p, _ := NewProgram(fig2GroupSet(), 2, 4)
	if err := p.Place(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if p.At(0, 1) != 5 || p.Filled() != 1 {
		t.Error("Place did not record page")
	}
	if err := p.Place(0, 1, 6); !errors.Is(err, ErrSlotOccupied) {
		t.Errorf("double placement error = %v, want ErrSlotOccupied", err)
	}
	if err := p.Place(5, 0, 1); !errors.Is(err, ErrSlotRange) {
		t.Errorf("out-of-range channel error = %v, want ErrSlotRange", err)
	}
	if err := p.Place(0, 9, 1); !errors.Is(err, ErrSlotRange) {
		t.Errorf("out-of-range slot error = %v, want ErrSlotRange", err)
	}
	if err := p.Place(1, 0, 99); !errors.Is(err, ErrPageRange) {
		t.Errorf("out-of-range page error = %v, want ErrPageRange", err)
	}
	if err := p.Place(1, 0, None); !errors.Is(err, ErrPageRange) {
		t.Errorf("placing None error = %v, want ErrPageRange", err)
	}
	p.Clear(0, 1)
	if p.At(0, 1) != None || p.Filled() != 0 {
		t.Error("Clear did not empty the cell")
	}
	p.Clear(0, 1) // idempotent
	p.Clear(9, 9) // out of range: no-op
	if p.Filled() != 0 {
		t.Error("Clear changed fill count unexpectedly")
	}
}

func TestAppearancesDeduplicatesColumns(t *testing.T) {
	p, _ := NewProgram(fig2GroupSet(), 2, 4)
	mustPlace(t, p, 0, 1, 3)
	mustPlace(t, p, 1, 1, 3) // same column, second channel
	mustPlace(t, p, 0, 3, 3)
	cols := p.Appearances(3)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 {
		t.Errorf("Appearances = %v, want [1 3]", cols)
	}
	if got := p.CountOf(3); got != 3 {
		t.Errorf("CountOf = %d, want 3 (per-cell)", got)
	}
	if got := p.Appearances(0); len(got) != 0 {
		t.Errorf("Appearances(0) = %v, want none for an absent page", got)
	}
}

func TestValidateConditions(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 1}, {4, 1}})
	build := func(place func(p *Program)) *Program {
		p, _ := NewProgram(gs, 1, 4)
		place(p)
		return p
	}
	tests := []struct {
		name    string
		p       *Program
		wantErr string
	}{
		{
			"valid",
			build(func(p *Program) {
				mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 2, 0}, {0, 1, 1}})
			}),
			"",
		},
		{
			"missing page",
			build(func(p *Program) {
				mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 2, 0}})
			}),
			"never broadcast",
		},
		{
			"first appearance too late",
			build(func(p *Program) {
				// Page 0 (t=2) first appears at slot 2.
				mustPlaceAll(p, [][3]int{{0, 2, 0}, {0, 0, 1}})
			}),
			"first broadcast",
		},
		{
			"interior gap too large",
			build(func(p *Program) {
				// Page 0 (t=2) at slots 0 and 3: gap 3 > 2.
				mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 3, 0}, {0, 1, 1}})
			}),
			"gap",
		},
		{
			"cyclic wrap gap too large",
			build(func(p *Program) {
				// Page 0 (t=2) at slot 1 only: wrap gap 4 > 2.
				mustPlaceAll(p, [][3]int{{0, 1, 0}, {0, 0, 1}})
			}),
			"wrap",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !errors.Is(err, ErrInvalidProgram) {
				t.Errorf("error %v is not ErrInvalidProgram", err)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not mention %q", err, tt.wantErr)
			}
		})
	}
}

func TestValidateWrapCountsAsGap(t *testing.T) {
	// Page with t=4 appearing at slots 0 and 2 of a length-8 cycle: the
	// interior gap is 2 but the wrap gap is 6 > 4.
	gs := MustGroupSet([]Group{{4, 1}, {8, 1}})
	p, _ := NewProgram(gs, 1, 8)
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 2, 0}, {0, 1, 1}})
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted wrap gap 6 > t=4")
	}
}

func TestClone(t *testing.T) {
	p, _ := NewProgram(fig2GroupSet(), 2, 4)
	mustPlace(t, p, 0, 0, 1)
	q := p.Clone()
	mustPlace(t, q, 0, 1, 2)
	if p.At(0, 1) != None {
		t.Error("Clone shares grid storage with original")
	}
	if q.At(0, 0) != 1 {
		t.Error("Clone lost existing placements")
	}
	if p.Filled() != 1 || q.Filled() != 2 {
		t.Errorf("Filled() = %d/%d, want 1/2", p.Filled(), q.Filled())
	}
}

func TestProgramString(t *testing.T) {
	p, _ := NewProgram(fig2GroupSet(), 2, 3)
	mustPlace(t, p, 0, 0, 7)
	s := p.String()
	if !strings.Contains(s, "ch0") || !strings.Contains(s, "7") || !strings.Contains(s, "--") {
		t.Errorf("String() = %q missing expected elements", s)
	}
	if got := strings.Count(s, "\n"); got != 2 {
		t.Errorf("String() has %d lines, want 2", got)
	}
}

func mustPlace(t *testing.T, p *Program, ch, slot int, id PageID) {
	t.Helper()
	if err := p.Place(ch, slot, id); err != nil {
		t.Fatalf("Place(%d,%d,%d): %v", ch, slot, id, err)
	}
}

// mustPlaceAll places (ch, slot, id) triples, panicking on failure; for
// building small fixtures.
func mustPlaceAll(p *Program, triples [][3]int) {
	for _, tr := range triples {
		if err := p.Place(tr[0], tr[1], PageID(tr[2])); err != nil {
			panic(err)
		}
	}
}

func TestProgramWrapAccessors(t *testing.T) {
	p, _ := NewProgram(fig2GroupSet(), 3, 4)
	mustPlace(t, p, 1, 3, 5)
	cases := []struct{ abs, col int }{
		{0, 0}, {3, 3}, {4, 0}, {7, 3}, {11, 3}, {-1, 3}, {-4, 0}, {-5, 3},
	}
	for _, c := range cases {
		if got := p.Column(c.abs); got != c.col {
			t.Errorf("Column(%d) = %d, want %d", c.abs, got, c.col)
		}
	}
	if got := p.AtAbs(1, 7); got != 5 {
		t.Errorf("AtAbs(1, 7) = %d, want 5", got)
	}
	if got := p.AtAbs(1, -1); got != 5 {
		t.Errorf("AtAbs(1, -1) = %d, want 5", got)
	}
	chCases := []struct{ ch, want int }{{0, 0}, {2, 2}, {3, 0}, {7, 1}, {-1, 2}}
	for _, c := range chCases {
		if got := p.WrapChannel(c.ch); got != c.want {
			t.Errorf("WrapChannel(%d) = %d, want %d", c.ch, got, c.want)
		}
	}
}
