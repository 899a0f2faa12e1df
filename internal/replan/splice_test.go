package replan

import (
	"errors"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
)

// survivorUniverse lists every old page that survives delta, with its
// remapped identity on the new program.
func survivorUniverse(d *Delta, oldPages int) (oldIDs, newIDs []core.PageID) {
	for id := core.PageID(0); int(id) < oldPages; id++ {
		if nid := d.RemapPage(id); nid != core.None {
			oldIDs = append(oldIDs, id)
			newIDs = append(newIDs, nid)
		}
	}
	return oldIDs, newIDs
}

// TestSpliceBoundsAgainstOracle drives live edits and checks, via the
// independent conformance replay, that every client's measured wait
// across the epoch flip stays within SpliceBounds — and that the bounds
// are exact: shaving half a slot off any item's bound makes the oracle
// reject the transition.
func TestSpliceBoundsAgainstOracle(t *testing.T) {
	gs, err := core.Geometric(4, 2, []int{6, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(gs, 4)
	if err != nil {
		t.Fatal(err)
	}
	edits := []func() (*Delta, error){
		func() (*Delta, error) { return eng.RetirePage(1) },
		func() (*Delta, error) { return eng.AddPage(2) },
		func() (*Delta, error) { return eng.SetChannels(3) },
		func() (*Delta, error) { return eng.SetExpectedTime(0, 2) },
	}
	for step, edit := range edits {
		oldProg := eng.Snapshot()
		oldPages := eng.GroupSet().Pages()
		d, err := edit()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		newProg := eng.Snapshot()
		oldIDs, newIDs := survivorUniverse(d, oldPages)
		bounds, err := SpliceBounds(oldProg, newProg, oldIDs, newIDs)
		if err != nil {
			t.Fatalf("step %d: SpliceBounds: %v", step, err)
		}
		if err := conformance.TransitionBound(oldProg, newProg, oldIDs, newIDs, bounds); err != nil {
			t.Fatalf("step %d (kind %v): measured wait exceeds SpliceBounds: %v", step, d.Kind, err)
		}
		for item := range bounds {
			tight := append([]float64(nil), bounds...)
			tight[item] -= 0.5
			if err := conformance.TransitionBound(oldProg, newProg, oldIDs, newIDs, tight); err == nil {
				t.Fatalf("step %d: bound for item %d (%.1f) is not tight", step, item, bounds[item])
			}
		}
	}
}

// TestSpliceBoundsValidation pins the input contract on a flip to an
// identical schedule.
func TestSpliceBoundsValidation(t *testing.T) {
	gs, err := core.Geometric(2, 2, []int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog := eng.Snapshot()
	ids := make([]core.PageID, gs.Pages())
	for i := range ids {
		ids[i] = core.PageID(i)
	}
	if _, err := SpliceBounds(nil, prog, ids, ids); !errors.Is(err, core.ErrInvalidProgram) {
		t.Errorf("nil program: err = %v, want ErrInvalidProgram", err)
	}
	if _, err := SpliceBounds(prog, prog, ids, ids[:2]); !errors.Is(err, core.ErrInvalidProgram) {
		t.Errorf("mismatched universes: err = %v, want ErrInvalidProgram", err)
	}
	bounds, err := SpliceBounds(prog, prog, ids, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(ids) {
		t.Fatalf("%d bounds for %d items", len(bounds), len(ids))
	}
	for i, b := range bounds {
		if b < 0 || b > float64(2*prog.Length()) {
			t.Errorf("bound[%d] = %f out of range", i, b)
		}
	}
}
