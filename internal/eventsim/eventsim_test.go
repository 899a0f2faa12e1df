package eventsim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var s Simulator
	if s.Now() != 0 {
		t.Error("zero value not a fresh simulator")
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
	if s.Run() != 0 {
		t.Error("Run on empty queue executed events")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Simulator
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		if err := s.At(at, func() { order = append(order, at) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Run(); n != 5 {
		t.Fatalf("Run = %d, want 5", n)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events ran out of order: %v", order)
	}
	if s.Now() != 5 {
		t.Errorf("Now = %f, want 5", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Simulator
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.At(7, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of scheduling order: %v", order)
		}
	}
}

func TestAtValidation(t *testing.T) {
	var s Simulator
	if err := s.At(5, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	err := s.At(3, func() {})
	if !errors.Is(err, ErrPastEvent) {
		t.Errorf("past event error = %v, want ErrPastEvent", err)
	}
	if err := s.At(9, nil); err == nil {
		t.Error("nil function accepted")
	}
}

func TestAfter(t *testing.T) {
	var s Simulator
	var at float64 = -1
	if err := s.At(4, func() {
		_ = s.After(2.5, func() { at = s.Now() })
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if at != 6.5 {
		t.Errorf("After event ran at %f, want 6.5", at)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	var s Simulator
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			_ = s.After(1, recurse)
		}
	}
	_ = s.At(0, recurse)
	if n := s.Run(); n != 100 {
		t.Errorf("Run = %d, want 100", n)
	}
	if s.Now() != 99 {
		t.Errorf("Now = %f, want 99", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var s Simulator
	ran := 0
	for _, at := range []float64{1, 2, 3, 10} {
		_ = s.At(at, func() { ran++ })
	}
	if n := s.RunUntil(3); n != 3 {
		t.Errorf("RunUntil(3) = %d, want 3", n)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %f, want exactly 3", s.Now())
	}
	if n := s.RunUntil(2); n != 0 {
		t.Errorf("RunUntil into the past ran %d events", n)
	}
	if n := s.Run(); n != 1 {
		t.Errorf("Run after RunUntil(3) ran %d events, want the 1 left", n)
	}
}

// TestPeriodic: a constant interval fires a fixed-period train.
func TestPeriodic(t *testing.T) {
	var s Simulator
	var fires []float64
	err := s.PeriodicVar(2, func(int) float64 { return 3 }, func(at float64) bool {
		fires = append(fires, at)
		return len(fires) < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := []float64{2, 5, 8, 11}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

// Property: an arbitrary schedule of events always executes in
// non-decreasing time order with ties FIFO.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Simulator
		type stamp struct {
			at  float64
			seq int
		}
		var execs []stamp
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := float64(rng.Intn(20)) // coarse times force many ties
			seq := i
			_ = s.At(at, func() { execs = append(execs, stamp{at, seq}) })
		}
		if s.Run() != n {
			return false
		}
		for i := 1; i < len(execs); i++ {
			prev, cur := execs[i-1], execs[i]
			if cur.at < prev.at {
				return false
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPeriodicVar(t *testing.T) {
	var s Simulator
	// Intervals 1, 2, 3, ... : tick k fires at 0, 1, 3, 6 (triangular).
	var fired []float64
	err := s.PeriodicVar(0, func(k int) float64 { return float64(k + 1) }, func(at float64) bool {
		fired = append(fired, at)
		return len(fired) < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := []float64{0, 1, 3, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestPeriodicVarStopsOnNonPositiveInterval(t *testing.T) {
	var s Simulator
	ticks := 0
	err := s.PeriodicVar(0, func(k int) float64 { return float64(1 - k) }, func(float64) bool {
		ticks++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// interval(0)=1 bridges to the second tick; interval(1)=0 ends the
	// train even though fn keeps returning true.
	if s.Run() == 0 || ticks != 2 {
		t.Errorf("ticks = %d, want 2", ticks)
	}
}

func TestPeriodicVarRejectsNil(t *testing.T) {
	var s Simulator
	if err := s.PeriodicVar(0, nil, func(float64) bool { return false }); err == nil {
		t.Error("nil interval accepted")
	}
	if err := s.PeriodicVar(0, func(int) float64 { return 1 }, nil); err == nil {
		t.Error("nil function accepted")
	}
}
