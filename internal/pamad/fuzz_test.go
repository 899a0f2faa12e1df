package pamad

import (
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/susc"
)

// FuzzPAMADPlacement drives arbitrary group shapes and channel budgets
// through the full PAMAD pipeline (Algorithm 3 + 4) and asserts the
// placement invariants: Build never fails on a valid instance, every page
// is placed exactly S_i times, the grid bookkeeping is consistent, the
// chain-skipping PlaceEvenly matches the retained literal Algorithm 4
// reference cell for cell, and in the sufficient-channel regime the SUSC
// program for the same instance is valid (Theorem 3.1).
func FuzzPAMADPlacement(f *testing.F) {
	f.Add(2, 2, uint8(3), uint8(5), uint8(3), 3) // Figure 2, one channel short
	f.Add(2, 2, uint8(3), uint8(5), uint8(3), 4) // Figure 2 at the Theorem 3.1 minimum
	f.Add(1, 3, uint8(1), uint8(0), uint8(9), 1)
	f.Add(5, 4, uint8(40), uint8(1), uint8(200), 2)
	f.Add(64, 8, uint8(255), uint8(255), uint8(255), 16)
	f.Fuzz(func(t *testing.T, t1, c int, p1, p2, p3 uint8, nReal int) {
		// Bound the shape so a single case stays fast; Geometric rejects
		// the remaining invalid inputs itself.
		if t1 > 64 || c > 8 || nReal < 1 || nReal > 16 {
			return
		}
		var counts []int
		for _, p := range []uint8{p1, p2, p3} {
			if p > 0 {
				counts = append(counts, int(p))
			}
		}
		if len(counts) == 0 {
			return
		}
		gs, err := core.Geometric(t1, c, counts)
		if err != nil {
			return
		}
		prog, res, err := Build(gs, nReal)
		if err != nil {
			t.Fatalf("Build(%v, %d): %v", gs, nReal, err)
		}
		s := res.Frequencies
		if len(s) != gs.Len() {
			t.Fatalf("%d frequencies for %d groups", len(s), gs.Len())
		}
		if prog.Channels() != nReal || prog.Length() != res.MajorCycle {
			t.Fatalf("program %dx%d, want %dx%d", prog.Channels(), prog.Length(), nReal, res.MajorCycle)
		}
		if got, want := prog.Filled(), s.TotalSlots(gs); got != want {
			t.Fatalf("filled %d cells, want F=%d", got, want)
		}
		for gi := 0; gi < gs.Len(); gi++ {
			if s[gi] < 1 {
				t.Fatalf("S_%d = %d < 1", gi+1, s[gi])
			}
			first, count := gs.GroupPages(gi)
			for j := 0; j < count; j++ {
				id := first + core.PageID(j)
				if got := prog.CountOf(id); got != s[gi] {
					t.Fatalf("page %d placed %d times, want S_%d=%d (gs=%v, n=%d)",
						id, got, gi+1, s[gi], gs, nReal)
				}
			}
		}
		ref, _, err := placeEvenlyReference(gs, s, nReal)
		if err != nil {
			t.Fatalf("placeEvenlyReference(%v, %v, %d): %v", gs, s, nReal, err)
		}
		if prog.Filled() != ref.Filled() {
			t.Fatalf("fast Filled %d, reference %d", prog.Filled(), ref.Filled())
		}
		for ch := 0; ch < nReal; ch++ {
			for slot := 0; slot < res.MajorCycle; slot++ {
				if prog.At(ch, slot) != ref.At(ch, slot) {
					t.Fatalf("cell (%d,%d) = %d, reference %d (gs=%v, s=%v, n=%d)",
						ch, slot, prog.At(ch, slot), ref.At(ch, slot), gs, s, nReal)
				}
			}
		}
		if nReal >= gs.MinChannels() {
			sp, err := susc.Build(gs, nReal)
			if err != nil {
				t.Fatalf("susc.Build(%v, %d): %v", gs, nReal, err)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("SUSC program invalid at %d >= MinChannels=%d channels: %v",
					nReal, gs.MinChannels(), err)
			}
		}
	})
}

// FuzzWindowEnds pins placeOnePage's division-free window ends to
// core.CeilDiv(t_major*(k+1), S_i) for every window k of arbitrary
// (t_major, S_i).
func FuzzWindowEnds(f *testing.F) {
	f.Add(uint64(3), uint16(7))
	f.Add(uint64(12), uint16(4))
	f.Add(uint64(17), uint16(1))
	f.Add(uint64(1<<40+12345), uint16(977))
	f.Fuzz(func(t *testing.T, tMajor uint64, si uint16) {
		// t_major*S_i must not overflow the reference's int product.
		if tMajor == 0 || si == 0 || tMajor > 1<<46 {
			return
		}
		checkWindowEnds(t, int(tMajor), int(si))
	})
}
