package netcast

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/replan"
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
		{"depth over the cell limit", 1, core.MaxCells + 1},
		{"product overflows", math.MaxInt / 2, 1 << 20},
		{"product over the cell limit", core.MaxCells/(1<<14) + 1, 1 << 14},
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

// TestRingCellSize pins the one-word cell: a frame is one atomic store.
func TestRingCellSize(t *testing.T) {
	if got := unsafe.Sizeof(ringCell{}); got != 8 {
		t.Fatalf("ringCell is %d bytes, want 8", got)
	}
}

// channelsOnly is a Transport that only reports a channel count, for
// checking NewCaster's limits without building a ring of that size.
type channelsOnly int

func (c channelsOnly) Channels() int                   { return int(c) }
func (channelsOnly) NeedsFrame(ch int) bool            { return true }
func (channelsOnly) Publish(ch, abs int, frame []byte) {}
func (channelsOnly) Skip(ch, abs int)                  {}
func (channelsOnly) EndSlot(abs int)                   {}
func (channelsOnly) Close() error                      { return nil }

// TestChannelLimit pins the 16-bit channel field's limit: 65,536 channels
// air, the last one polling as itself, and 65,537 are refused by the
// ring, the caster and the UDP transport (whose check runs before any
// socket is bound, so this opens none).
func TestChannelLimit(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 1, Count: 1}})
	prog, err := core.NewProgram(gs, maxFrameChannels, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := maxFrameChannels - 1
	if err := prog.Place(last, 0, 0); err != nil {
		t.Fatal(err)
	}
	ring, caster := ringCaster(t, prog, 1, nil)
	caster.CastSlot(3)
	if f, st := ring.Poll(last, 3); st != RingOK || f != (Frame{Channel: last, Slot: 3, Page: 0}) {
		t.Errorf("Poll(%d, 3) = %+v/%v, want page 0 on channel %d", last, f, st, last)
	}

	if _, err := NewBroadcastRing(maxFrameChannels+1, 1); err == nil {
		t.Errorf("NewBroadcastRing(%d, 1) succeeded", maxFrameChannels+1)
	}
	wide, err := core.NewProgram(gs, maxFrameChannels+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCaster(wide, channelsOnly(maxFrameChannels+1), nil); err == nil {
		t.Errorf("NewCaster over %d channels succeeded", maxFrameChannels+1)
	}
	if tr, err := NewUDPTransport(maxFrameChannels+1, ""); err == nil {
		tr.Close()
		t.Errorf("NewUDPTransport(%d) succeeded", maxFrameChannels+1)
	}
}

// pollPublished publishes frame on channel ch at slot abs of a depth-1
// ring, ends the slot and polls it back.
func pollPublished(r *BroadcastRing, ch, abs int, frame []byte) (Frame, PollStatus) {
	r.Publish(ch, abs, frame)
	r.EndSlot(abs)
	return r.Poll(ch, int64(abs))
}

// TestRingCellCatchesEverySingleByteFlip is the frame flip test through
// the ring: every single-byte flip of a published frame polls
// RingCorrupt — flips of the magic, channel and slot because the frame no
// longer matches its cell, the rest by version or checksum.
func TestRingCellCatchesEverySingleByteFlip(t *testing.T) {
	ring, err := NewBroadcastRing(maxFrameChannels, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sampleFrames(128) {
		clean := appendFrame(nil, f)
		if got, st := pollPublished(ring, f.Channel, int(f.Slot), clean); st != RingOK || got != f {
			t.Fatalf("%+v: clean frame polled %+v/%v", f, got, st)
		}
		b := make([]byte, FrameSize)
		for i := 0; i < FrameSize; i++ {
			if i == frameSumOff || i == frameSumOff+1 {
				continue
			}
			for mask := 1; mask < 256; mask++ {
				copy(b, clean)
				b[i] ^= byte(mask)
				got, st := pollPublished(ring, f.Channel, int(f.Slot), b)
				if st != RingCorrupt {
					t.Fatalf("%+v: flip %#02x at byte %d polled %+v/%v", f, mask, i, got, st)
				}
			}
		}
	}
}

// TestRingCellMismatchPollsCorrupt pins that a frame the cell cannot hold
// polls RingCorrupt even with a valid checksum: one naming another
// channel or slot, or carrying another magic, and one whose stored word
// would read as a skipped channel.
func TestRingCellMismatchPollsCorrupt(t *testing.T) {
	ring, err := NewBroadcastRing(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, Frame{Channel: 3, Slot: 7, Page: 5})
	if got, st := pollPublished(ring, 3, 7, frame); st != RingOK || got != (Frame{Channel: 3, Slot: 7, Page: 5}) {
		t.Fatalf("matching cell polled %+v/%v", got, st)
	}
	if _, st := pollPublished(ring, 2, 7, frame); st != RingCorrupt {
		t.Errorf("frame for channel 3 on channel 2 polled %v, want RingCorrupt", st)
	}
	if _, st := pollPublished(ring, 3, 8, frame); st != RingCorrupt {
		t.Errorf("frame for slot 7 at slot 8 polled %v, want RingCorrupt", st)
	}
	// Slot 7 at abs 2^32+7 matches in the low 32 bits the wire carries.
	if _, st := pollPublished(ring, 3, 1<<32+7, frame); st != RingOK {
		t.Errorf("frame for slot 7 at abs 2^32+7 polled %v, want RingOK", st)
	}
	w0, w1 := packFrameWords(frame)
	w0 = w0&^(0xFFFF<<48|0xFFFF) | 0x1234<<48
	w0 |= uint64(frameSumWords(w0, w1))
	var other [FrameSize]byte
	putFrameWords(&other, w0, w1)
	if _, st := pollPublished(ring, 3, 7, other[:]); st != RingCorrupt {
		t.Errorf("frame with magic 0x1234 polled %v, want RingCorrupt", st)
	}
	// Version 0, no flags, checksum 0, page 0: every stored bit zero.
	putFrameWords(&other, uint64(frameMagic)<<48|3<<16, 7<<32)
	if _, st := pollPublished(ring, 3, 7, other[:]); st != RingCorrupt {
		t.Errorf("all-zero cell word polled %v, want RingCorrupt", st)
	}
}

// TestRingCellVersion1 pins that a checksum-less version-1 frame, which
// parseFrame refuses, polls RingCorrupt through the ring too.
func TestRingCellVersion1(t *testing.T) {
	ring, err := NewBroadcastRing(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var v1 [FrameSize]byte
	putFrameWords(&v1, uint64(frameMagic)<<48|1<<40|2<<16, 9<<32|0x0102)
	if f, err := parseFrame(v1[:]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("parseFrame(v1) = %+v, %v, want ErrBadFrame", f, err)
	}
	if got, st := pollPublished(ring, 2, 9, v1[:]); st != RingCorrupt {
		t.Errorf("version-1 frame polled %+v/%v, want RingCorrupt", got, st)
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

// TestRingPollNegativeSlot pins that a slot before slot 0, which never
// airs, polls RingPending before the first cast, once the ring is partly
// filled, and once it has lapped — never a skipped or lost slot read off
// a row the negative index wraps onto.
func TestRingPollNegativeSlot(t *testing.T) {
	prog := testProgram(t)
	ring, caster := ringCaster(t, prog, 8, nil)
	for _, head := range []int64{0, 3, 20} {
		for abs := ring.Head(); abs < head; abs++ {
			caster.CastSlot(int(abs))
		}
		for _, abs := range []int64{-1, -2, -(1 << 40)} {
			for ch := 0; ch < prog.Channels(); ch++ {
				if f, st := ring.Poll(ch, abs); st != RingPending || f != (Frame{}) {
					t.Errorf("head %d: Poll(%d, %d) = %+v/%v, want RingPending", head, ch, abs, f, st)
				}
			}
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

// stallDropCorrupt is a plan over prog that stalls slots and drops and
// corrupts frames, each often enough to show within a few cycles.
func stallDropCorrupt(t *testing.T, prog *core.Program) *chaos.Plan {
	t.Helper()
	plan, err := chaos.NewPlan(chaos.Config{Seed: 5, Loss: 0.1, Corrupt: 0.1, StallEvery: 13, StallFor: 2},
		prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// hiddenRing hides a ring's type from NewCaster, so the caster casts
// into it frame by frame through Publish and Skip.
type hiddenRing struct{ Transport }

// TestCastRowMatchesPublish is the differential for the row cast: one
// program is cast for several cycles across an epoch flip twice, as whole
// rows into one ring and frame by frame through Publish and Skip into
// another, and after every slot the two rings must agree — fault-free,
// and under a plan that stalls slots and drops and corrupts frames. The
// rings are shallow, so every row is reused.
//
// A faulted cast writes dense rows, so the slot's cell words must agree
// word for word: a cell the cast leaves unwritten shows as the word it
// held one ring length earlier. A fault-free cast writes epoch rows,
// which hold no cell words, so there what subscribers see must agree:
// every channel's Poll frame and status at every slot of the window and
// at the row lapped one ring length back (RingLost on both). Either way
// the slot's row stamp and the head must agree after every slot, and the
// epochs and fault counters at the end.
func TestCastRowMatchesPublish(t *testing.T) {
	old, next, _, _ := flipFixture(t, func(e *replan.Engine) (*replan.Delta, error) {
		return e.RetirePage(2)
	})
	plan := stallDropCorrupt(t, old)
	const depth = 8
	for _, c := range []struct {
		name  string
		fault FaultInjector
	}{{"fault-free", nil}, {"faulted", plan}} {
		t.Run(c.name, func(t *testing.T) {
			rowRing, rowCaster := ringCaster(t, old, depth, c.fault)
			pubRing, err := NewBroadcastRing(old.Channels(), depth)
			if err != nil {
				t.Fatal(err)
			}
			pubCaster, err := NewCaster(old, hiddenRing{pubRing}, c.fault)
			if err != nil {
				t.Fatal(err)
			}
			if rowCaster.ring == nil || pubCaster.ring != nil {
				t.Fatal("the casters do not take the row and the frame path")
			}
			stageAt := old.Length()/2 + 1
			for abs := 0; abs < 3*old.Length()+2*next.Length(); abs++ {
				if abs == stageAt {
					for _, cs := range []*Caster{rowCaster, pubCaster} {
						if err := cs.StageProgram(next); err != nil {
							t.Fatal(err)
						}
					}
				}
				rowCaster.CastSlot(abs)
				pubCaster.CastSlot(abs)
				a := int64(abs)
				if c.fault == nil {
					if src := rowRing.heads[a&rowRing.mask].src.Load(); src == nil {
						t.Fatalf("slot %d: fault-free cast wrote a dense row", abs)
					}
					for ch := 0; ch < old.Channels(); ch++ {
						for p := max(0, a-depth); p <= a; p++ {
							rf, rs := rowRing.Poll(ch, p)
							pf, ps := pubRing.Poll(ch, p)
							if rf != pf || rs != ps {
								t.Fatalf("head %d: Poll(%d, %d) = %+v/%v from the row cast, %+v/%v published",
									abs+1, ch, p, rf, rs, pf, ps)
							}
							if p == a-depth && rs != RingLost {
								t.Fatalf("head %d: lapped Poll(%d, %d) = %v, want RingLost", abs+1, ch, p, rs)
							}
						}
					}
				} else {
					rows, pubs := rowRing.row(a), pubRing.row(a)
					for ch := range rows {
						if r, p := rows[ch].word.Load(), pubs[ch].word.Load(); r != p {
							t.Fatalf("slot %d channel %d: row cast %#016x, published %#016x", abs, ch, r, p)
						}
					}
				}
				if r, p := rowRing.heads[a&rowRing.mask].stamp.Load(), pubRing.heads[a&pubRing.mask].stamp.Load(); r != p {
					t.Fatalf("slot %d: stamps %d and %d", abs, r, p)
				}
				if rowRing.Head() != pubRing.Head() {
					t.Fatalf("slot %d: heads %d and %d", abs, rowRing.Head(), pubRing.Head())
				}
			}
			if rowCaster.Epoch() != pubCaster.Epoch() || rowCaster.Epoch().Seq != 1 {
				t.Fatalf("epochs %+v and %+v, want one flip on both", rowCaster.Epoch(), pubCaster.Epoch())
			}
			got, want := rowCaster.Faults(), pubCaster.Faults()
			if got != want {
				t.Fatalf("row cast faults %+v, published %+v", got, want)
			}
			if c.fault != nil && (got.StalledSlots == 0 || got.DroppedFrames == 0 || got.CorruptFrames == 0) {
				t.Errorf("faults %+v: the plan misses a fault class", got)
			}
		})
	}
}

// TestRingZeroAllocs is the acceptance-criteria alloc guard: the ring
// transport does zero allocations per slot on the publish side, fault-free
// and under a plan that stalls, drops and corrupts, and zero per poll on
// the subscriber side, at any subscriber count — the O(1) server-work
// claim in allocation form.
func TestRingZeroAllocs(t *testing.T) {
	prog := testProgram(t)
	_, faulted := ringCaster(t, prog, 64, stallDropCorrupt(t, prog))
	fabs := 0
	if g := testing.AllocsPerRun(1000, func() {
		faulted.CastSlot(fabs)
		fabs++
	}); g != 0 {
		t.Errorf("faulted CastSlot allocates %v per slot, want 0", g)
	}
	if f := faulted.Faults(); f.StalledSlots == 0 || f.DroppedFrames == 0 || f.CorruptFrames == 0 {
		t.Errorf("faults %+v: the plan misses a fault class", f)
	}
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

// TestRingEpochRowsRace races readers against the writer on epoch rows:
// a fault-free caster airs one program across two epoch flips (old to
// next, next back to old) into a depth-4 ring, lapping every row again
// and again, while readers poll every channel of the slots behind the
// head. Every RingOK frame must equal, channel, slot and page, the frame
// a reference cast of the same staging through Publish airs there, so
// a row read under one epoch and slot but built from another is caught;
// under -race this is the data-race proof for the rows' epoch reference.
// The writer casts a slot only once readers have polled as many times as
// it has cast, so they read throughout the run.
func TestRingEpochRowsRace(t *testing.T) {
	old, next, _, _ := flipFixture(t, func(e *replan.Engine) (*replan.Delta, error) {
		return e.RetirePage(2)
	})
	lOld, lNew := old.Length(), next.Length()
	// next flips in at 6*lOld, old again at 6*lOld+11*lNew.
	stages := map[int]*core.Program{5*lOld + lOld/2: next, 6*lOld + 10*lNew + lNew/2: old}
	total := 11*lOld + 11*lNew
	cast := func(c *Caster) {
		for abs := 0; abs < total; abs++ {
			if p := stages[abs]; p != nil {
				if err := c.StageProgram(p); err != nil {
					t.Error(err)
					return
				}
			}
			c.CastSlot(abs)
		}
	}
	refRing, err := NewBroadcastRing(old.Channels(), total)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCaster(old, hiddenRing{refRing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cast(ref)
	if ep := ref.Epoch(); ep.Seq != 2 || ep.Program != old {
		t.Fatalf("reference epoch %+v, want two flips back to the old program", ep)
	}

	ring, caster := ringCaster(t, old, 4, nil)
	var polls, oks atomic.Int64
	var failed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				head := ring.Head()
				for abs := max(0, head-int64(ring.Slots())); abs < head; abs++ {
					for ch := 0; ch < ring.Channels(); ch++ {
						f, st := ring.Poll(ch, abs)
						switch st {
						case RingOK:
							oks.Add(1)
							if want, _ := refRing.Poll(ch, abs); f != want {
								t.Errorf("Poll(%d, %d) = %+v, reference %+v", ch, abs, f, want)
								failed.Store(true)
							}
						case RingLost:
						default:
							t.Errorf("Poll(%d, %d) = %v under fault-free air", ch, abs, st)
							failed.Store(true)
						}
					}
				}
				polls.Add(1)
			}
		}()
	}
	for abs := 0; abs < total && !failed.Load(); abs++ {
		for polls.Load() < int64(abs) && !failed.Load() {
			runtime.Gosched()
		}
		if p := stages[abs]; p != nil {
			if err := caster.StageProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		caster.CastSlot(abs)
	}
	close(stop)
	wg.Wait()
	if ep := caster.Epoch(); !failed.Load() && (ep.Seq != 2 || ep.Program != old) {
		t.Fatalf("epoch %+v, want two flips back to the old program", ep)
	}
	if oks.Load() == 0 {
		t.Error("no poll read an intact frame")
	}
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
