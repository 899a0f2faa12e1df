package netcast

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/susc"
)

// mustProgram builds the minimal SUSC program for gs, for benchmarks
// that cannot take *testing.T.
func mustProgram(tb testing.TB, gs *core.GroupSet) *core.Program {
	tb.Helper()
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// ringCaster builds a ring + caster pair over prog.
func ringCaster(t testing.TB, prog *core.Program, slots int, fault FaultInjector) (*BroadcastRing, *Caster) {
	t.Helper()
	ring, err := NewBroadcastRing(prog.Channels(), slots)
	if err != nil {
		t.Fatal(err)
	}
	caster, err := NewCaster(prog, ring, fault)
	if err != nil {
		t.Fatal(err)
	}
	return ring, caster
}

// TestRingValidation pins the constructor's checks and rounding. An
// oversized ring is refused with an error rather than hanging or
// allocating: a depth whose power-of-two rounding would overflow, a
// channels x depth product that overflows int, and one that fits int but
// exceeds the cell limit.
func TestRingValidation(t *testing.T) {
	for _, c := range []struct {
		name            string
		channels, slots int
	}{
		{"zero channels", 0, 8},
		{"depth rounding overflows", 1, math.MaxInt/2 + 2},
		{"depth over the cell limit", 1, maxRingCells + 1},
		{"product overflows", math.MaxInt / 2, 1 << 20},
		{"product over the cell limit", maxRingCells/DefaultRingSlots + 1, 0},
	} {
		if _, err := NewBroadcastRing(c.channels, c.slots); err == nil {
			t.Errorf("%s: NewBroadcastRing(%d, %d) succeeded, want an error", c.name, c.channels, c.slots)
		}
	}
	ring, err := NewBroadcastRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.Slots(); got != DefaultRingSlots {
		t.Errorf("default slots = %d, want %d", got, DefaultRingSlots)
	}
	ring, err = NewBroadcastRing(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.Slots(); got != 8 {
		t.Errorf("slots rounded to %d, want 8", got)
	}
}

func TestCasterValidation(t *testing.T) {
	prog := testProgram(t)
	ring, err := NewBroadcastRing(prog.Channels()+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCaster(nil, ring, nil); err == nil {
		t.Error("expected error for nil program")
	}
	if _, err := NewCaster(prog, nil, nil); err == nil {
		t.Error("expected error for nil transport")
	}
	if _, err := NewCaster(prog, ring, nil); err == nil {
		t.Error("expected error for channel count mismatch")
	}
}

// TestRingPollMatchesProgram pins the happy path: every polled frame
// carries exactly the page the program schedules at that (channel, slot).
func TestRingPollMatchesProgram(t *testing.T) {
	prog := testProgram(t)
	ring, caster := ringCaster(t, prog, 16, nil)

	if _, st := ring.Poll(0, 0); st != RingPending {
		t.Fatalf("pre-air poll = %v, want RingPending", st)
	}
	const slots = 12
	for abs := 0; abs < slots; abs++ {
		caster.CastSlot(abs)
	}
	if got := ring.Head(); got != slots {
		t.Fatalf("Head() = %d, want %d", got, slots)
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		for abs := int64(0); abs < slots; abs++ {
			f, st := ring.Poll(ch, abs)
			if st != RingOK {
				t.Fatalf("Poll(%d, %d) = %v, want RingOK", ch, abs, st)
			}
			want := prog.At(ch, prog.Column(int(abs)))
			if f.Page != want || f.Channel != ch || f.Slot != uint32(abs) {
				t.Fatalf("Poll(%d, %d) = %+v, want page %d", ch, abs, f, want)
			}
		}
		if _, st := ring.Poll(ch, slots); st != RingPending {
			t.Fatalf("future poll = %v, want RingPending", st)
		}
	}
}

// TestRingLapDetection pins that a reader further behind than the ring
// length gets a definite RingLost, never a stale or torn frame.
func TestRingLapDetection(t *testing.T) {
	prog := testProgram(t)
	ring, caster := ringCaster(t, prog, 8, nil)
	for abs := 0; abs < 20; abs++ {
		caster.CastSlot(abs)
	}
	if _, st := ring.Poll(0, 0); st != RingLost {
		t.Errorf("lapped poll = %v, want RingLost", st)
	}
	if f, st := ring.Poll(0, 19); st != RingOK || f.Slot != 19 {
		t.Errorf("newest poll = %v/%v, want RingOK slot 19", f, st)
	}
}

// slotFault scripts per-(channel, slot) faults for transport tests.
type slotFault struct {
	stall   map[int]bool
	drop    map[[2]int]bool
	corrupt map[[2]int]bool
}

func (f *slotFault) Stalled(abs int) bool     { return f.stall[abs] }
func (f *slotFault) Drop(ch, abs int) bool    { return f.drop[[2]int{ch, abs}] }
func (f *slotFault) Corrupt(ch, abs int) bool { return f.corrupt[[2]int{ch, abs}] }

// TestRingSkipAndCorrupt pins the fault-visible poll statuses: a stalled
// slot and a dropped frame poll as RingSkipped, a corrupted frame as
// RingCorrupt, and the fault counters account for each.
func TestRingSkipAndCorrupt(t *testing.T) {
	prog := testProgram(t)
	fault := &slotFault{
		stall:   map[int]bool{1: true},
		drop:    map[[2]int]bool{{0, 2}: true},
		corrupt: map[[2]int]bool{{1, 3}: true},
	}
	ring, caster := ringCaster(t, prog, 16, fault)
	for abs := 0; abs < 5; abs++ {
		caster.CastSlot(abs)
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		if _, st := ring.Poll(ch, 1); st != RingSkipped {
			t.Errorf("stalled Poll(%d, 1) = %v, want RingSkipped", ch, st)
		}
	}
	if _, st := ring.Poll(0, 2); st != RingSkipped {
		t.Errorf("dropped Poll(0, 2) = %v, want RingSkipped", st)
	}
	if f, st := ring.Poll(1, 2); st != RingOK || f.Slot != 2 {
		t.Errorf("undropped channel Poll(1, 2) = %v/%v, want RingOK", f, st)
	}
	if _, st := ring.Poll(1, 3); st != RingCorrupt {
		t.Errorf("corrupt Poll(1, 3) = %v, want RingCorrupt", st)
	}
	if f, st := ring.Poll(0, 3); st != RingOK || f.Slot != 3 {
		t.Errorf("uncorrupted channel Poll(0, 3) = %v/%v, want RingOK", f, st)
	}
	got := caster.Faults()
	want := FaultStats{StalledSlots: 1, DroppedFrames: 1, CorruptFrames: 1}
	if got != want {
		t.Errorf("Faults() = %+v, want %+v", got, want)
	}
}

// TestRingClassificationDifferential casts a program through a depth-8
// ring under a plan with stalls, i.i.d. and burst loss and corruption
// all on, and after every slot polls every (channel, slot) in and around
// the window: each aired slot must read exactly as plan.Classify says,
// slots past the head RingPending, and the slot one ring length back
// RingLost. A channel skipped at abs whose row held an intact frame for
// abs-depth is the state a slot-major row makes reachable; it must read
// RingSkipped, never the stale frame.
func TestRingClassificationDifferential(t *testing.T) {
	prog := testProgram(t)
	const depth = 8
	cycles := max(4, 96/prog.Length())
	plan, err := chaos.NewPlan(chaos.Config{
		Seed:       3,
		Loss:       0.15,
		Corrupt:    0.15,
		StallEvery: 11,
		StallFor:   2,
		Burst:      &chaos.BurstConfig{GoodToBad: 0.1, BadToGood: 0.3, LossBad: 0.9},
	}, prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	ring, caster := ringCaster(t, prog, depth, plan)
	seen := map[chaos.SkipReason]int{}
	staleSkips := 0
	for head := 1; head <= cycles*prog.Length(); head++ {
		caster.CastSlot(head - 1)
		for ch := 0; ch < prog.Channels(); ch++ {
			for abs := max(0, head-depth); abs < head; abs++ {
				reason := plan.Classify(ch, abs)
				f, st := ring.Poll(ch, int64(abs))
				switch reason {
				case chaos.SkipNone:
					want := Frame{Channel: ch, Slot: uint32(abs), Page: prog.At(ch, prog.Column(abs))}
					if st != RingOK || f != want {
						t.Fatalf("head %d: Poll(%d, %d) = %+v/%v, want %+v/RingOK", head, ch, abs, f, st, want)
					}
				case chaos.SkipStall, chaos.SkipLoss:
					if st != RingSkipped {
						t.Fatalf("head %d: Poll(%d, %d) = %+v/%v, want RingSkipped (%v)", head, ch, abs, f, st, reason)
					}
				case chaos.SkipCorrupt:
					if st != RingCorrupt {
						t.Fatalf("head %d: Poll(%d, %d) = %+v/%v, want RingCorrupt", head, ch, abs, f, st)
					}
				}
			}
			if _, st := ring.Poll(ch, int64(head)); st != RingPending {
				t.Fatalf("head %d: Poll(%d, %d) = %v, want RingPending", head, ch, head, st)
			}
			if lapped := head - 1 - depth; lapped >= 0 {
				if _, st := ring.Poll(ch, int64(lapped)); st != RingLost {
					t.Fatalf("head %d: Poll(%d, %d) = %v, want RingLost", head, ch, lapped, st)
				}
			}
			// Tally the newest slot once, when it airs.
			abs := head - 1
			reason := plan.Classify(ch, abs)
			seen[reason]++
			if (reason == chaos.SkipStall || reason == chaos.SkipLoss) &&
				abs >= depth && plan.Classify(ch, abs-depth) == chaos.SkipNone {
				staleSkips++
			}
		}
	}
	for _, r := range []chaos.SkipReason{chaos.SkipNone, chaos.SkipStall, chaos.SkipLoss, chaos.SkipCorrupt} {
		if seen[r] == 0 {
			t.Errorf("plan never produced %v; the differential does not cover it", r)
		}
	}
	if staleSkips == 0 {
		t.Error("no channel was skipped over an intact frame one ring length back")
	}
}

// TestRingZeroAllocs is the acceptance-criteria alloc guard: the ring
// transport does zero allocations per slot on the publish side and zero
// per poll on the subscriber side, at any subscriber count — the O(1)
// server-work claim in allocation form.
func TestRingZeroAllocs(t *testing.T) {
	prog := testProgram(t)
	ring, caster := ringCaster(t, prog, 64, nil)
	abs := 0
	if g := testing.AllocsPerRun(1000, func() {
		caster.CastSlot(abs)
		abs++
	}); g != 0 {
		t.Errorf("CastSlot allocates %v per slot, want 0", g)
	}
	newest := int64(abs) - 1
	if g := testing.AllocsPerRun(1000, func() {
		if _, st := ring.Poll(0, newest); st != RingOK {
			t.Fatalf("Poll(0, %d) = %v, want RingOK", newest, st)
		}
	}); g != 0 {
		t.Errorf("Poll allocates %v per call, want 0", g)
	}
}

// TestRingChurnStorm hammers the seqlock from many readers joining and
// leaving mid-broadcast while one writer publishes flat out; under -race
// this doubles as the data-race proof for the atomic-word protocol. Every
// RingOK frame must be internally consistent (the exact slot asked for,
// the program's page for it) — torn reads surface as wrong pages.
func TestRingChurnStorm(t *testing.T) {
	prog := testProgram(t)
	ring, caster := ringCaster(t, prog, 16, nil)
	const slots = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch := w % prog.Channels()
			var abs int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				head := ring.Head()
				if head == 0 {
					continue
				}
				if abs < head-int64(ring.Slots()) || abs >= head {
					abs = head - 1 // rejoin at the newest slot, like a retuning client
				}
				f, st := ring.Poll(ch, abs)
				switch st {
				case RingOK:
					want := prog.At(ch, prog.Column(int(abs)))
					if f.Slot != uint32(abs) || f.Page != want {
						t.Errorf("torn read: Poll(%d, %d) = %+v, want page %d", ch, abs, f, want)
						return
					}
					abs++
				case RingLost:
					abs = ring.Head() - 1
				case RingCorrupt:
					t.Errorf("corrupt frame without fault injection at (%d, %d)", ch, abs)
					return
				}
			}
		}(w)
	}
	for abs := 0; abs < slots; abs++ {
		caster.CastSlot(abs)
	}
	close(stop)
	wg.Wait()
}

// BenchmarkFanoutRing measures delivered frames per second through the
// ring at three subscriber scales: one CastSlot publish plus one poll per
// subscriber per iteration. Publish cost is flat across the scales — the
// O(1) server-work claim in wall-clock form.
func BenchmarkFanoutRing(b *testing.B) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 3}})
	prog := mustProgram(b, gs)
	for _, subs := range []int{1_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			ring, caster := ringCaster(b, prog, 64, nil)
			b.ReportAllocs()
			b.ResetTimer()
			delivered := 0
			for i := 0; i < b.N; i++ {
				caster.CastSlot(i)
				abs := int64(i)
				for s := 0; s < subs; s++ {
					if _, st := ring.Poll(s%prog.Channels(), abs); st == RingOK {
						delivered++
					}
				}
			}
			b.StopTimer()
			if delivered == 0 {
				b.Fatal("no frames delivered")
			}
			b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}
