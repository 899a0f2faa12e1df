package core

import (
	"encoding/json"
	"testing"
)

// FuzzRearrange checks the rearrangement invariants on arbitrary inputs:
// no panics, and on success every new time is the closest power-of-c
// multiple of the minimum not exceeding its original.
func FuzzRearrange(f *testing.F) {
	f.Add(int64(2), int64(3), int64(9), 2)
	f.Add(int64(1), int64(1), int64(1), 3)
	f.Add(int64(5), int64(500), int64(7), 4)
	f.Add(int64(0), int64(-3), int64(10), 2) // invalid time
	f.Add(int64(2), int64(4), int64(8), 1)   // invalid ratio
	f.Add(int64(1000000), int64(1), int64(999983), 7)
	f.Fuzz(func(t *testing.T, a, b, c int64, ratio int) {
		times := []int{int(a % 100000), int(b % 100000), int(c % 100000)}
		r, err := Rearrange(times, ratio)
		if err != nil {
			return // invalid input rejected: fine
		}
		for i, orig := range times {
			nt := r.NewTimes[i]
			if nt < 1 || nt > orig {
				t.Fatalf("times %v ratio %d: new time %d out of (0, %d]", times, ratio, nt, orig)
			}
			if nt <= orig/ratio && nt*ratio <= orig {
				t.Fatalf("times %v ratio %d: %d not the closest power (x%d still fits)", times, ratio, nt, ratio)
			}
		}
		if r.Set.Pages() != len(times) {
			t.Fatalf("lost pages: %d != %d", r.Set.Pages(), len(times))
		}
		if err := validateChain(r.Set); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRearrangeMonotone checks the Section 2 tightening contract on wider
// instances than FuzzRearrange: rearranged times never exceed their
// originals, the input order of times is preserved in the output, every
// assigned page ID carries the rearranged time, and the mapping is
// idempotent (tightened times already sit on the geometric grid, so a
// second pass is the identity).
func FuzzRearrangeMonotone(f *testing.F) {
	f.Add([]byte{2, 3, 4, 6, 9}, 2) // the paper's Section 2 example
	f.Add([]byte{1, 1, 255}, 3)
	f.Add([]byte{10}, 9)
	f.Add([]byte{7, 0, 7}, 2) // contains an invalid zero time
	f.Fuzz(func(t *testing.T, raw []byte, ratio int) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		times := make([]int, len(raw))
		for i, b := range raw {
			times[i] = int(b)
		}
		r, err := Rearrange(times, ratio)
		if err != nil {
			return // invalid input rejected: fine
		}
		for i, orig := range times {
			nt := r.NewTimes[i]
			if nt < 1 || nt > orig {
				t.Fatalf("times %v ratio %d: new time %d out of (0, %d]", times, ratio, nt, orig)
			}
			if got := r.Set.TimeOf(r.IDs[i]); got != nt {
				t.Fatalf("times %v ratio %d: page %d has group time %d, NewTimes %d",
					times, ratio, r.IDs[i], got, nt)
			}
		}
		for i := range times {
			for j := range times {
				if times[i] <= times[j] && r.NewTimes[i] > r.NewTimes[j] {
					t.Fatalf("times %v ratio %d: order broken at %d,%d: %v",
						times, ratio, i, j, r.NewTimes)
				}
			}
		}
		again, err := Rearrange(r.NewTimes, ratio)
		if err != nil {
			t.Fatalf("re-rearranging %v: %v", r.NewTimes, err)
		}
		for i, nt := range r.NewTimes {
			if again.NewTimes[i] != nt {
				t.Fatalf("not idempotent: %v -> %v", r.NewTimes, again.NewTimes)
			}
		}
	})
}

// validateChain re-checks the divisibility chain independently of
// NewGroupSet's own validation.
func validateChain(gs *GroupSet) error {
	for i := 1; i < gs.Len(); i++ {
		if gs.Group(i).Time%gs.Group(i-1).Time != 0 {
			return ErrInvalidGroupSet
		}
	}
	return nil
}

// FuzzProgramJSON ensures arbitrary bytes never panic the decoder and that
// anything it accepts is internally consistent.
func FuzzProgramJSON(f *testing.F) {
	gs := MustGroupSet([]Group{{2, 2}, {4, 1}})
	p, _ := NewProgram(gs, 2, 4)
	_ = p.Place(0, 0, 0)
	_ = p.Place(0, 2, 0)
	_ = p.Place(1, 0, 1)
	_ = p.Place(1, 2, 1)
	_ = p.Place(0, 1, 2)
	good, _ := json.Marshal(p)
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"groups":[{"Time":2,"Count":1}],"channels":1,"length":1,"grid":[[0]]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(hugeDeclaredProgram))
	f.Fuzz(func(t *testing.T, data []byte) {
		var prog Program
		if err := json.Unmarshal(data, &prog); err != nil {
			return
		}
		// Accepted programs must be analyzable without panics and agree
		// with a re-encode/decode cycle.
		a := Analyze(&prog)
		reenc, err := json.Marshal(&prog)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var back Program
		if err := json.Unmarshal(reenc, &back); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if Analyze(&back).AvgWait() != a.AvgWait() {
			t.Fatal("re-encoded program differs")
		}
	})
}

// FuzzGroupSetJSON: arbitrary bytes never panic; accepted sets satisfy the
// invariants.
func FuzzGroupSetJSON(f *testing.F) {
	f.Add([]byte(`{"groups":[{"Time":2,"Count":3},{"Time":4,"Count":5}]}`))
	f.Add([]byte(`{"groups":[]}`))
	f.Add([]byte(`{"groups":[{"Time":-1,"Count":3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var gs GroupSet
		if err := json.Unmarshal(data, &gs); err != nil {
			return
		}
		if gs.Len() < 1 || gs.Pages() < 1 {
			t.Fatalf("accepted empty set: %v", &gs)
		}
		if err := validateChain(&gs); err != nil {
			t.Fatal(err)
		}
		if gs.MinChannels() < 1 {
			t.Fatalf("MinChannels = %d", gs.MinChannels())
		}
	})
}
