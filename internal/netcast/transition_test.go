package netcast

import (
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/replan"
)

// flipFixture drives a replan edit and returns the pre- and post-edit
// program snapshots plus the surviving item universe across the edit.
func flipFixture(t *testing.T, edit func(*replan.Engine) (*replan.Delta, error)) (
	old, next *core.Program, oldIDs, newIDs []core.PageID) {
	t.Helper()
	gs, err := core.Geometric(4, 2, []int{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := replan.New(gs, 4)
	if err != nil {
		t.Fatal(err)
	}
	old = eng.Snapshot()
	oldPages := eng.GroupSet().Pages()
	d, err := edit(eng)
	if err != nil {
		t.Fatal(err)
	}
	next = eng.Snapshot()
	for id := core.PageID(0); int(id) < oldPages; id++ {
		if nid := d.RemapPage(id); nid != core.None {
			oldIDs = append(oldIDs, id)
			newIDs = append(newIDs, nid)
		}
	}
	return old, next, oldIDs, newIDs
}

// TestRingEpochFlipZeroPause is the zero-pause gate: stage a replanned
// program mid-cycle and poll every (channel, slot) of the whole run off
// the seqlock ring. Every slot must read back RingOK — no pause, no skip,
// no torn frame — with the old program's pages bit-exact up to the flip
// boundary and the new program's pages, phase-aligned to the boundary,
// after it.
func TestRingEpochFlipZeroPause(t *testing.T) {
	old, next, _, _ := flipFixture(t, func(e *replan.Engine) (*replan.Delta, error) {
		return e.RetirePage(2)
	})
	ring, err := NewBroadcastRing(old.Channels(), DefaultRingSlots)
	if err != nil {
		t.Fatal(err)
	}
	caster, err := NewCaster(old, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	lOld := old.Length()
	stageAt := lOld/2 + 1 // mid-cycle: the flip must wait for the boundary
	total := 3*lOld + 2*next.Length()
	flipAbs := -1
	for abs := 0; abs < total; abs++ {
		if abs == stageAt {
			if err := caster.StageProgram(next); err != nil {
				t.Fatal(err)
			}
		}
		caster.CastSlot(abs)
		if ep := caster.Epoch(); ep.Seq == 1 && flipAbs == -1 {
			flipAbs = ep.Base
		}
	}
	wantFlip := ((stageAt + lOld - 1) / lOld) * lOld // next cycle start after staging
	if flipAbs != wantFlip {
		t.Fatalf("flip at abs %d, want next old-cycle boundary %d (staged at %d)", flipAbs, wantFlip, stageAt)
	}
	if ep := caster.Epoch(); ep.Seq != 1 || ep.Program != next {
		t.Fatalf("final epoch seq %d, program %p; want seq 1 airing the staged snapshot", ep.Seq, ep.Program)
	}
	for abs := 0; abs < total; abs++ {
		prog, phase := old, abs
		if abs >= flipAbs {
			prog, phase = next, abs-flipAbs
		}
		col := prog.Column(phase)
		for ch := 0; ch < prog.Channels(); ch++ {
			f, st := ring.Poll(ch, int64(abs))
			if st != RingOK {
				t.Fatalf("slot %d ch %d: status %v, want RingOK (zero-pause violated)", abs, ch, st)
			}
			if want := prog.At(ch, col); f.Page != want {
				t.Fatalf("slot %d ch %d: page %d, want %d (flip at %d)", abs, ch, f.Page, want, flipAbs)
			}
		}
	}
}

// TestFlipRespectsSpliceBounds measures, client-side off the ring, the
// worst wait of every surviving item for arrivals in the final old cycle,
// and checks the measurement against replan.SpliceBounds — then hands
// the same transition to the conformance.TransitionBound oracle. This is
// the per-client deadline-regression guarantee of a live replan.
func TestFlipRespectsSpliceBounds(t *testing.T) {
	for name, edit := range map[string]func(*replan.Engine) (*replan.Delta, error){
		"retire":   func(e *replan.Engine) (*replan.Delta, error) { return e.RetirePage(1) },
		"add":      func(e *replan.Engine) (*replan.Delta, error) { return e.AddPage(2) },
		"channels": func(e *replan.Engine) (*replan.Delta, error) { return e.SetChannels(3) },
	} {
		t.Run(name, func(t *testing.T) {
			old, next, oldIDs, newIDs := flipFixture(t, edit)
			bounds, err := replan.SpliceBounds(old, next, oldIDs, newIDs)
			if err != nil {
				t.Fatal(err)
			}
			if err := conformance.TransitionBound(old, next, oldIDs, newIDs, bounds); err != nil {
				t.Fatalf("oracle rejects SpliceBounds: %v", err)
			}

			// Air the transition for real. The staged program may have a
			// different channel count (SetChannels replans onto different
			// hardware in the model): skip the on-air measurement then —
			// the oracle above already covered the schedule-level bound.
			if next.Channels() != old.Channels() {
				return
			}
			ring, err := NewBroadcastRing(old.Channels(), DefaultRingSlots)
			if err != nil {
				t.Fatal(err)
			}
			caster, err := NewCaster(old, ring, nil)
			if err != nil {
				t.Fatal(err)
			}
			lOld, lNew := old.Length(), next.Length()
			flipAbs := lOld // staged mid-first-cycle: flips at the second cycle start
			total := flipAbs + 2*lNew
			for abs := 0; abs < total; abs++ {
				if abs == 1 {
					if err := caster.StageProgram(next); err != nil {
						t.Fatal(err)
					}
				}
				caster.CastSlot(abs)
			}
			if ep := caster.Epoch(); ep.Seq != 1 || ep.Base != flipAbs {
				t.Fatalf("epoch %+v, want flip at %d", ep, flipAbs)
			}
			// firstOnAir(id, from) scans the aired frames for page id.
			firstOnAir := func(id core.PageID, from int) int {
				for abs := from; abs < total; abs++ {
					for ch := 0; ch < old.Channels(); ch++ {
						f, st := ring.Poll(ch, int64(abs))
						if st == RingOK && f.Page == id {
							return abs
						}
					}
				}
				return -1
			}
			for i := range oldIDs {
				for u := 0; u < lOld; u++ {
					arrive := u // arrivals across the final old cycle before the flip
					served := firstOnAir(oldIDs[i], arrive)
					if served >= flipAbs || served == -1 {
						// Not aired again before the boundary: the client
						// re-tunes to the new identity after the flip.
						served = firstOnAir(newIDs[i], flipAbs)
					}
					if served == -1 {
						t.Fatalf("item %d never served after arriving at %d", i, arrive)
					}
					if wait := float64(served - arrive); wait > bounds[i]+1e-9 {
						t.Fatalf("item %d arriving at slot %d waited %.0f slots > bound %.2f",
							i, arrive, wait, bounds[i])
					}
				}
			}
		})
	}
}

// TestStageProgramValidation pins the staging contract.
func TestStageProgramValidation(t *testing.T) {
	old, _, _, _ := flipFixture(t, func(e *replan.Engine) (*replan.Delta, error) {
		return e.AddPage(0)
	})
	ring, err := NewBroadcastRing(old.Channels(), 64)
	if err != nil {
		t.Fatal(err)
	}
	caster, err := NewCaster(old, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.StageProgram(nil); err == nil {
		t.Error("nil staged program accepted")
	}
	gs, err := core.Geometric(2, 2, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := core.NewProgram(gs, old.Channels()+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.StageProgram(wrong); err == nil {
		t.Error("channel-count mismatch accepted")
	}
	if ep := caster.Epoch(); ep.Seq != 0 || ep.Program != old {
		t.Errorf("failed staging disturbed the epoch: %+v", ep)
	}
}
