package netcast

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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

// TestChannelLimit pins the 16-bit channel field's limit: 65,536 channels
// air, the last one polling as itself, and 65,537 are refused by the
// ring, by the caster (a program of 65,537 channels has no ring to cast
// into) and by the UDP transport (whose check runs before any socket is
// bound, so this opens none).
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
	if _, err := NewCaster(wide, ring, nil); err == nil {
		t.Errorf("NewCaster over %d channels succeeded", maxFrameChannels+1)
	}
	if tr, err := NewUDPTransport(maxFrameChannels+1, ""); err == nil {
		tr.Close()
		t.Errorf("NewUDPTransport(%d) succeeded", maxFrameChannels+1)
	}
}

// storeCell airs slot abs of r as a dense row holding cell word w on
// channel ch, the way a faulted cast stores a frame, so a test can poll
// any word; the row's other cells keep what they held.
func storeCell(r *BroadcastRing, ch, abs int, w uint64) {
	r.openRow(abs)[ch].word.Store(w)
	r.endSlot(abs)
}

// cellWordOf packs datagram b into the cell word a ring stores for it:
// its version, flags, checksum and page. The magic, channel and slot are
// not stored; a cell rebuilds them from its position.
func cellWordOf(b []byte) uint64 {
	w0, w1 := packFrameWords(b)
	return (w0>>32&0xFFFF)<<48 | (w0&0xFFFF)<<32 | w1&0xFFFF_FFFF
}

// TestRingCellCatchesEverySingleByteFlip is the frame flip test through
// the ring: every single-byte flip of a byte a cell stores (version,
// flags and page; the checksum is what catches them) polls RingCorrupt.
func TestRingCellCatchesEverySingleByteFlip(t *testing.T) {
	ring, err := NewBroadcastRing(maxFrameChannels, 1)
	if err != nil {
		t.Fatal(err)
	}
	stored := []int{frameVersionOff, frameVersionOff + 1, framePageOff, framePageOff + 1, framePageOff + 2, framePageOff + 3}
	for _, f := range sampleFrames(128) {
		clean := appendFrame(nil, f)
		storeCell(ring, f.Channel, int(f.Slot), cellWordOf(clean))
		if got, st := ring.Poll(f.Channel, int64(f.Slot)); st != RingOK || got != f {
			t.Fatalf("%+v: clean frame polled %+v/%v", f, got, st)
		}
		b := make([]byte, FrameSize)
		for _, i := range stored {
			for mask := 1; mask < 256; mask++ {
				copy(b, clean)
				b[i] ^= byte(mask)
				storeCell(ring, f.Channel, int(f.Slot), cellWordOf(b))
				if got, st := ring.Poll(f.Channel, int64(f.Slot)); st != RingCorrupt {
					t.Fatalf("%+v: flip %#02x at byte %d polled %+v/%v", f, mask, i, got, st)
				}
			}
		}
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
	storeCell(ring, 2, 9, cellWordOf(v1[:]))
	if got, st := ring.Poll(2, 9); st != RingCorrupt {
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
		t.Error("expected error for nil ring")
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

// datagram is one frame a transport was handed: its channel, its slot
// and its wire bytes.
type datagram struct {
	ch, abs int
	bytes   string
}

// recorder is a Transport that records every datagram published to it.
type recorder struct {
	channels int
	got      []datagram
}

func (r *recorder) Channels() int { return r.channels }
func (r *recorder) Publish(ch, abs int, frame []byte) {
	r.got = append(r.got, datagram{ch, abs, string(frame)})
}
func (r *recorder) Close() error { return nil }

// frameCaster is the frame-by-frame reference caster. Per slot it
// encodes each channel's datagram directly (appendFrame's whole-frame
// checksum), applies the injector's faults in the chaos engine's order
// (stall, then drop, then corruption, the flip made in the wire bytes)
// and flips to a staged program at the airing program's cycle boundary,
// as Caster does.
type frameCaster struct {
	epoch  EpochInfo
	staged *core.Program
	fault  FaultInjector
	faults FaultStats
}

// cast returns slot abs's datagrams in channel order, one per channel
// that transmits.
func (c *frameCaster) cast(abs int) []datagram {
	if c.staged != nil && c.epoch.Program.Column(abs-c.epoch.Base) == 0 {
		c.epoch = EpochInfo{Seq: c.epoch.Seq + 1, Base: abs, Program: c.staged}
		c.staged = nil
	}
	if c.fault != nil && c.fault.Stalled(abs) {
		c.faults.StalledSlots++
		return nil
	}
	prog := c.epoch.Program
	col := prog.Column(abs - c.epoch.Base)
	var out []datagram
	for ch := 0; ch < prog.Channels(); ch++ {
		if c.fault != nil && c.fault.Drop(ch, abs) {
			c.faults.DroppedFrames++
			continue
		}
		b := appendFrame(nil, Frame{Channel: ch, Slot: uint32(abs), Page: prog.At(ch, col)})
		if c.fault != nil && c.fault.Corrupt(ch, abs) {
			c.faults.CorruptFrames++
			b[corruptFlipOffset] ^= corruptFlipMask
		}
		out = append(out, datagram{ch, abs, string(b)})
	}
	return out
}

// TestCastRowMatchesPublish is the differential for the one cast path:
// one program is cast for several cycles across an epoch flip, as whole
// rows into a shallow ring (every row is reused) and by the
// frame-by-frame reference caster, fault-free and under a plan that
// stalls slots and drops and corrupts frames. After every slot the
// datagrams Send hands a recording Transport must equal the reference's
// byte for byte, in channel order, and every channel must poll as its
// datagram parses: RingOK with the parsed frame, RingCorrupt for a
// datagram parseFrame refuses, RingSkipped for a channel with none.
// A slot not yet cast sends nothing. The epochs and the fault counters
// must agree at the end.
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
			ring, caster := ringCaster(t, old, depth, c.fault)
			ref := &frameCaster{epoch: EpochInfo{Program: old}, fault: c.fault}
			rec := &recorder{channels: old.Channels()}
			stageAt := old.Length()/2 + 1
			for abs := 0; abs < 3*old.Length()+2*next.Length(); abs++ {
				if abs == stageAt {
					if err := caster.StageProgram(next); err != nil {
						t.Fatal(err)
					}
					ref.staged = next
				}
				caster.CastSlot(abs)
				if src := ring.heads[int64(abs)&ring.mask].src.Load(); (src != nil) != (c.fault == nil) {
					t.Fatalf("slot %d: epoch row %v under fault injector %v", abs, src != nil, c.fault)
				}
				rec.got = rec.got[:0]
				ring.Send(rec, abs)
				want := ref.cast(abs)
				if !slices.Equal(rec.got, want) {
					t.Fatalf("slot %d: Send published %q, reference %q", abs, rec.got, want)
				}
				sent := make([]string, old.Channels())
				for _, d := range want {
					sent[d.ch] = d.bytes
				}
				for ch, b := range sent {
					wantF, wantSt := Frame{}, RingSkipped
					if b != "" {
						wantSt = RingCorrupt
						if f, err := parseFrame([]byte(b)); err == nil {
							wantF, wantSt = f, RingOK
						}
					}
					if f, st := ring.Poll(ch, int64(abs)); f != wantF || st != wantSt {
						t.Fatalf("Poll(%d, %d) = %+v/%v, want %+v/%v", ch, abs, f, st, wantF, wantSt)
					}
				}
				rec.got = rec.got[:0]
				if ring.Send(rec, abs+1); len(rec.got) != 0 {
					t.Fatalf("slot %d not yet cast: Send published %q", abs+1, rec.got)
				}
			}
			if ep := caster.Epoch(); ep != ref.epoch || ep.Seq != 1 {
				t.Fatalf("epochs %+v and %+v, want one flip on both", ep, ref.epoch)
			}
			got := caster.Faults()
			if got != ref.faults {
				t.Fatalf("caster faults %+v, reference %+v", got, ref.faults)
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
// the frame-by-frame reference caster airs there under the same staging, so
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
	ref := &frameCaster{epoch: EpochInfo{Program: old}}
	want := make([][]Frame, total)
	for abs := range want {
		if p := stages[abs]; p != nil {
			ref.staged = p
		}
		for _, d := range ref.cast(abs) {
			f, err := parseFrame([]byte(d.bytes))
			if err != nil {
				t.Fatal(err)
			}
			want[abs] = append(want[abs], f)
		}
	}
	if ep := ref.epoch; ep.Seq != 2 || ep.Program != old {
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
							if f != want[abs][ch] {
								t.Errorf("Poll(%d, %d) = %+v, reference %+v", ch, abs, f, want[abs][ch])
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
