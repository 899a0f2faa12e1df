package core

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestGroupSetJSONRoundTrip(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 3}, {4, 5}, {8, 3}})
	data, err := json.Marshal(gs)
	if err != nil {
		t.Fatal(err)
	}
	var back GroupSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !gs.Equal(&back) {
		t.Errorf("round trip lost data: %v vs %v", gs, &back)
	}
	// Derived state must be rebuilt, not just the raw fields.
	if back.Pages() != gs.Pages() || back.MinChannels() != gs.MinChannels() {
		t.Error("decoded group set has stale derived state")
	}
}

func TestGroupSetJSONRejectsInvalid(t *testing.T) {
	var gs GroupSet
	if err := json.Unmarshal([]byte(`{"groups":[{"Time":4,"Count":1},{"Time":6,"Count":1}]}`), &gs); err == nil {
		t.Error("non-divisible times accepted")
	}
	if err := json.Unmarshal([]byte(`{"groups":`), &gs); err == nil {
		t.Error("truncated JSON accepted")
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}, {4, 2}})
	p, _ := NewProgram(gs, 2, 4)
	mustPlaceAll(p, [][3]int{{0, 0, 0}, {0, 2, 0}, {1, 1, 1}, {1, 3, 1}, {0, 1, 2}, {1, 0, 3}})
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Program
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Channels() != 2 || back.Length() != 4 || back.Filled() != p.Filled() {
		t.Fatalf("dimensions lost: %dx%d filled %d", back.Channels(), back.Length(), back.Filled())
	}
	for ch := 0; ch < 2; ch++ {
		for slot := 0; slot < 4; slot++ {
			if back.At(ch, slot) != p.At(ch, slot) {
				t.Errorf("cell (%d,%d) = %d, want %d", ch, slot, back.At(ch, slot), p.At(ch, slot))
			}
		}
	}
	if !back.GroupSet().Equal(gs) {
		t.Error("instance lost")
	}
}

func TestProgramJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		gs := randomGroupSet(rng)
		p, err := NewProgram(gs, 1+rng.Intn(4), 1+rng.Intn(30))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			_ = p.Place(rng.Intn(p.Channels()), rng.Intn(p.Length()), PageID(rng.Intn(gs.Pages())))
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Program
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if back.Filled() != p.Filled() {
			t.Fatalf("trial %d: filled %d != %d", trial, back.Filled(), p.Filled())
		}
		// Delay analysis must survive the round trip exactly.
		if a, b := Analyze(p).AvgWait(), Analyze(&back).AvgWait(); a != b {
			t.Fatalf("trial %d: wait %f != %f", trial, a, b)
		}
	}
}

func TestProgramJSONRejectsMalformed(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 1}})
	p, _ := NewProgram(gs, 1, 2)
	good, _ := json.Marshal(p)

	tests := []struct {
		name   string
		mutate func(string) string
	}{
		{"bad version", func(s string) string { return strings.Replace(s, `"version":1`, `"version":9`, 1) }},
		{"page out of range", func(s string) string { return strings.Replace(s, `[[-1,-1]]`, `[[7,-1]]`, 1) }},
		{"row count mismatch", func(s string) string { return strings.Replace(s, `[[-1,-1]]`, `[[-1,-1],[-1,-1]]`, 1) }},
		{"row length mismatch", func(s string) string { return strings.Replace(s, `[[-1,-1]]`, `[[-1]]`, 1) }},
		{"bad groups", func(s string) string { return strings.Replace(s, `"Time":2`, `"Time":0`, 1) }},
		{"truncated", func(s string) string { return s[:len(s)/2] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := tt.mutate(string(good))
			if mutated == string(good) {
				t.Fatalf("mutation had no effect on %s", good)
			}
			var back Program
			if err := json.Unmarshal([]byte(mutated), &back); err == nil {
				t.Errorf("malformed input accepted: %s", mutated)
			}
		})
	}
}

// hugeDeclaredProgram declares 10^6 channels of 10^9 slots but carries no
// grid: a decoder that allocates the declared grid before checking its
// shape panics on it.
const hugeDeclaredProgram = `{"version":1,"groups":[{"Time":4,"Count":1}],"channels":1000000,"length":1000000000,"grid":[]}`

func TestProgramJSONRejectsUndecodedGrid(t *testing.T) {
	var back Program
	err := json.Unmarshal([]byte(hugeDeclaredProgram), &back)
	if !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("got %v, want ErrInvalidProgram", err)
	}
}
