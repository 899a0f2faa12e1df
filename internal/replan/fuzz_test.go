package replan

import (
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
)

// FuzzReplanEquivalence is the adversarial half of the tentpole gate: an
// arbitrary instance shape and an arbitrary byte-driven edit script run
// through one live engine, and after every edit the live program must be
// bit-identical to pamad placement rerun from scratch on the edited
// instance, with the engine's derived frequencies and accounting matching
// the scratch run exactly, and the counts annotateEdit derives from the
// Delta's cells matching the remapped pre-edit grid diffed against the
// post-edit one.
func FuzzReplanEquivalence(f *testing.F) {
	f.Add(2, 2, uint8(3), uint8(5), uint8(3), 3, []byte{0x00, 0x41, 0x82, 0xc3})
	f.Add(4, 2, uint8(20), uint8(30), uint8(40), 5, []byte{0x01, 0x01, 0x41, 0x41, 0x85})
	f.Add(1, 3, uint8(1), uint8(0), uint8(9), 1, []byte{0xff, 0x00, 0x7f})
	f.Add(8, 4, uint8(60), uint8(60), uint8(60), 9, []byte{0x02, 0x42, 0x82, 0xc2, 0x03})
	// Halving t_1 replays from group 0 and lands page 0 on cells that were
	// empty before the edit: none of those placements is Unchanged.
	f.Add(50, 3, uint8(1), uint8(0), uint8(1), 14, []byte{0xd4})
	f.Fuzz(func(t *testing.T, t1, c int, p1, p2, p3 uint8, nReal int, script []byte) {
		if t1 > 64 || c > 8 || nReal < 1 || nReal > 16 || len(script) > 24 {
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
		eng, err := New(gs, nReal)
		if err != nil {
			// Valid Geometric instances always derive frequencies at
			// nReal >= 1; a failure here is a real bug.
			t.Fatalf("New(%v, %d): %v", gs, nReal, err)
		}
		for step, op := range script {
			// Top two bits pick the event, the rest parameterise it.
			arg := int(op & 0x3f)
			before := eng.Snapshot()
			gsOld, sOld := eng.GroupSet(), eng.Frequencies()
			var d *Delta
			var evErr error
			switch op >> 6 {
			case 0:
				d, evErr = eng.AddPage(arg % eng.GroupSet().Len())
			case 1:
				g := arg % eng.GroupSet().Len()
				if eng.GroupSet().Group(g).Count == 1 {
					continue
				}
				d, evErr = eng.RetirePage(g)
			case 2:
				d, evErr = eng.SetChannels(1 + arg%16)
			default:
				// Halve or double group 0's time when the chain allows it.
				gsCur := eng.GroupSet()
				t0 := gsCur.Group(0).Time
				tNew := t0 * 2
				if arg%2 == 0 && t0%2 == 0 {
					tNew = t0 / 2
				}
				if gsCur.Len() > 1 && (tNew >= gsCur.Group(1).Time || gsCur.Group(1).Time%tNew != 0) {
					continue
				}
				d, evErr = eng.SetExpectedTime(0, tNew)
			}
			if evErr != nil {
				t.Fatalf("step %d (op %#x): %v", step, op, evErr)
			}

			s, _, err := pamad.Frequencies(eng.GroupSet(), eng.Channels())
			if err != nil {
				t.Fatalf("step %d: scratch frequencies: %v", step, err)
			}
			if !s.Equal(eng.Frequencies()) {
				t.Fatalf("step %d: engine frequencies %v, scratch %v", step, eng.Frequencies(), s)
			}
			want, wantStats, err := pamad.PlaceEvenly(eng.GroupSet(), s, eng.Channels())
			if err != nil {
				t.Fatalf("step %d: scratch placement: %v", step, err)
			}
			got := eng.Program()
			if got.Channels() != want.Channels() || got.Length() != want.Length() ||
				got.Filled() != want.Filled() {
				t.Fatalf("step %d (kind %v): live %dx%d/%d cells, scratch %dx%d/%d",
					step, d.Kind, got.Channels(), got.Length(), got.Filled(),
					want.Channels(), want.Length(), want.Filled())
			}
			for ch := 0; ch < want.Channels(); ch++ {
				for slot := 0; slot < want.Length(); slot++ {
					if got.At(ch, slot) != want.At(ch, slot) {
						t.Fatalf("step %d (kind %v): cell (%d,%d) = %d, scratch %d",
							step, d.Kind, ch, slot, got.At(ch, slot), want.At(ch, slot))
					}
				}
			}
			if eng.Stats() != wantStats {
				t.Fatalf("step %d (kind %v): stats %+v, scratch %+v", step, d.Kind, eng.Stats(), wantStats)
			}
			checkExactAccounting(t, step, before, got, d, annotateEdit(d, gsOld, sOld, eng))
		}
	})
}
