package airwave

import (
	"fmt"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/eventsim"
)

// twoChannelProgram builds a 2x4 program:
//
//	ch0 | 0 1 0 1
//	ch1 | 2 2 2 2
func twoChannelProgram(t *testing.T) *core.Program {
	t.Helper()
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 1}})
	p, err := core.NewProgram(gs, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 4; slot++ {
		if err := p.Place(0, slot, core.PageID(slot%2)); err != nil {
			t.Fatal(err)
		}
		if err := p.Place(1, slot, 2); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestNewValidation(t *testing.T) {
	var sim eventsim.Simulator
	prog := twoChannelProgram(t)
	if _, err := New(nil, prog, nil); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := New(&sim, nil, nil); err == nil {
		t.Error("nil program accepted")
	}
	m, err := New(&sim, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Program() != prog {
		t.Error("Program() mismatch")
	}
	if _, err := m.NewTuner(nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestBroadcastDeliversProgramCyclically(t *testing.T) {
	var sim eventsim.Simulator
	m, err := New(&sim, twoChannelProgram(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.PageID
	tuner, err := m.NewTuner(func(f Frame) { got = append(got, f.Page) })
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.TuneTo(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(9.5) // slots 0..9
	want := []core.PageID{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("received %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frames = %v, want %v", got, want)
		}
	}
	if m.Slot() != 10 {
		t.Errorf("Slot = %d, want 10", m.Slot())
	}
}

func TestTunerHearsOnlyItsChannel(t *testing.T) {
	var sim eventsim.Simulator
	m, _ := New(&sim, twoChannelProgram(t), nil)
	var frames []Frame
	tuner, _ := m.NewTuner(func(f Frame) { frames = append(frames, f) })
	_ = tuner.TuneTo(1)
	_ = m.Start()
	sim.RunUntil(3.5)
	for _, f := range frames {
		if f.Channel != 1 || f.Page != 2 {
			t.Fatalf("heard foreign frame %+v", f)
		}
	}
	if len(frames) != 4 {
		t.Errorf("received %d frames, want 4", len(frames))
	}
}

func TestRetuneMidBroadcast(t *testing.T) {
	var sim eventsim.Simulator
	m, _ := New(&sim, twoChannelProgram(t), nil)
	var got []core.PageID
	var tuner *Tuner
	tuner, _ = m.NewTuner(func(f Frame) {
		got = append(got, f.Page)
		if len(got) == 2 {
			_ = tuner.TuneTo(1)
		}
	})
	_ = tuner.TuneTo(0)
	_ = m.Start()
	sim.RunUntil(4.5)
	// Slots 0,1 on ch0 (pages 0,1) then slots 2,3,4 on ch1 (page 2).
	want := []core.PageID{0, 1, 2, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("frames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frames = %v, want %v", got, want)
		}
	}
}

func TestDetach(t *testing.T) {
	var sim eventsim.Simulator
	m, _ := New(&sim, twoChannelProgram(t), nil)
	count := 0
	var tuner *Tuner
	tuner, _ = m.NewTuner(func(Frame) {
		count++
		if count == 3 {
			tuner.Detach()
		}
	})
	_ = tuner.TuneTo(0)
	_ = m.Start()
	sim.RunUntil(9.5)
	if count != 3 {
		t.Errorf("received %d frames after detach-at-3, want 3", count)
	}
	if tuner.Channel() != -1 {
		t.Errorf("Channel = %d after Detach, want -1", tuner.Channel())
	}
}

func TestTuneToValidation(t *testing.T) {
	var sim eventsim.Simulator
	m, _ := New(&sim, twoChannelProgram(t), nil)
	tuner, _ := m.NewTuner(func(Frame) {})
	if err := tuner.TuneTo(5); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if err := tuner.TuneTo(-1); err == nil {
		t.Error("negative channel accepted")
	}
}

// scriptedFault is a Fault read from two optional scripts; a nil script
// injects nothing.
type scriptedFault struct {
	lost   func(ch, abs int) bool
	jitter func(abs int) float64
	asked  map[[2]int]int // Lost calls per (channel, slot)
}

func (f *scriptedFault) Lost(ch, abs int) bool {
	if f.asked != nil {
		f.asked[[2]int{ch, abs}]++
	}
	return f.lost != nil && f.lost(ch, abs)
}

func (f *scriptedFault) JitterAt(abs int) float64 {
	if f.jitter == nil {
		return 0
	}
	return f.jitter(abs)
}

// TestLostFramesSkipEveryTuner: a lost (channel, slot) is lost to every
// tuner on that channel, and the fault source is asked exactly once per
// (channel, slot) however many tuners listen.
func TestLostFramesSkipEveryTuner(t *testing.T) {
	var sim eventsim.Simulator
	fault := &scriptedFault{
		lost:  func(ch, abs int) bool { return ch == 0 && abs%2 == 1 },
		asked: map[[2]int]int{},
	}
	m, err := New(&sim, twoChannelProgram(t), fault)
	if err != nil {
		t.Fatal(err)
	}
	heard := make([][]int, 3)
	for i, ch := range []int{0, 0, 1} {
		i := i
		tuner, _ := m.NewTuner(func(f Frame) { heard[i] = append(heard[i], f.Slot) })
		_ = tuner.TuneTo(ch)
	}
	_ = m.Start()
	sim.RunUntil(7.5)
	for i, want := range [][]int{{0, 2, 4, 6}, {0, 2, 4, 6}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		if fmt.Sprint(heard[i]) != fmt.Sprint(want) {
			t.Errorf("tuner %d heard slots %v, want %v", i, heard[i], want)
		}
	}
	if len(fault.asked) != 16 {
		t.Errorf("fault asked about %d (channel, slot) cells, want 16", len(fault.asked))
	}
	for cell, n := range fault.asked {
		if n != 1 {
			t.Errorf("fault asked %d times about %v", n, cell)
		}
	}
}

func TestStartTwiceAndStop(t *testing.T) {
	var sim eventsim.Simulator
	m, _ := New(&sim, twoChannelProgram(t), nil)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err == nil {
		t.Error("second Start accepted")
	}
	count := 0
	tuner, _ := m.NewTuner(func(Frame) {
		count++
		if count == 2 {
			m.Stop()
		}
	})
	_ = tuner.TuneTo(0)
	sim.Run() // must terminate because Stop ends the periodic event
	if count != 2 {
		t.Errorf("frames after Stop-at-2: %d", count)
	}
}

func TestStartAtFractionalTime(t *testing.T) {
	var sim eventsim.Simulator
	_ = sim.At(2.3, func() {})
	sim.Run() // now = 2.3
	m, _ := New(&sim, twoChannelProgram(t), nil)
	var first float64 = -1
	tuner, _ := m.NewTuner(func(Frame) {
		if first < 0 {
			first = sim.Now()
		}
		m.Stop()
	})
	_ = tuner.TuneTo(0)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if first != 3 {
		t.Errorf("first frame at %f, want next slot boundary 3", first)
	}
}

func TestPageAt(t *testing.T) {
	var sim eventsim.Simulator
	m, _ := New(&sim, twoChannelProgram(t), nil)
	if got := m.PageAt(0, 6); got != 0 { // column 6%4=2 on ch0 = page 0
		t.Errorf("PageAt(0,6) = %d, want 0", got)
	}
	if got := m.PageAt(1, 100); got != 2 {
		t.Errorf("PageAt(1,100) = %d, want 2", got)
	}
	if got := m.PageAt(5, 0); got != core.None {
		t.Errorf("PageAt bad channel = %d, want None", got)
	}
	if got := m.PageAt(0, -1); got != core.None {
		t.Errorf("PageAt negative slot = %d, want None", got)
	}
}

// TestSlotJitterShiftsDeliveryInstants: under a jittering fault, frame k is
// delivered at first + k + jitter(k) instead of exactly first + k, frames
// still arrive in slot order, and an out-of-contract jitter value is
// clamped. Without jitter every frame lands exactly on its integer slot
// boundary, however long the medium runs.
func TestSlotJitterShiftsDeliveryInstants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		jitter func(abs int) float64
		frames int
	}{
		{"none", nil, 1000},
		{"clamped", func(slot int) float64 {
			switch slot % 3 {
			case 1:
				return 0.25
			case 2:
				return 2.0 // out of contract: must clamp to 0.5
			}
			return 0
		}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sim eventsim.Simulator
			sim.RunUntil(2.5) // start mid-slot: the first frame waits for slot boundary 3
			const first = 3.0
			m, err := New(&sim, twoChannelProgram(t), &scriptedFault{jitter: tc.jitter})
			if err != nil {
				t.Fatal(err)
			}
			type delivery struct {
				slot int
				at   float64
			}
			var got []delivery
			tuner, err := m.NewTuner(func(f Frame) { got = append(got, delivery{f.Slot, sim.Now()}) })
			if err != nil {
				t.Fatal(err)
			}
			if err := tuner.TuneTo(1); err != nil {
				t.Fatal(err)
			}
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			sim.RunUntil(first + float64(tc.frames) - 0.1)
			m.Stop()
			sim.Run()
			if len(got) < tc.frames {
				t.Fatalf("heard %d frames, want >= %d", len(got), tc.frames)
			}
			for k, d := range got[:tc.frames] {
				if d.slot != k {
					t.Fatalf("frame %d carries slot %d", k, d.slot)
				}
				want := first + float64(k)
				if tc.jitter != nil {
					switch k % 3 {
					case 1:
						want += 0.25
					case 2:
						want += 0.5 // clamped
					}
				}
				if d.at != want { //lint:ignore floateq slot instants are exact sums of exact offsets
					t.Errorf("slot %d delivered at %v, want %v", k, d.at, want)
				}
			}
		})
	}
}
