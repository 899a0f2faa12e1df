package netcast

import (
	"slices"
	"testing"

	"tcsa/internal/core"
)

// FuzzParseFrame: arbitrary datagrams never panic; accepted frames
// round-trip exactly.
func FuzzParseFrame(f *testing.F) {
	f.Add(appendFrame(nil, Frame{Channel: 1, Slot: 42, Page: 7}))
	f.Add(appendFrame(nil, Frame{Channel: 0, Slot: 0, Page: core.None}))
	f.Add([]byte{})
	f.Add([]byte{0x7C, 0x5A, 1, 0})
	f.Add(make([]byte, FrameSize))
	// The corruption flip the former folded FNV-1a checksum let through.
	hole := appendFrame(nil, Frame{Channel: 4, Slot: 21834, Page: 1})
	hole[corruptFlipOffset] ^= corruptFlipMask
	f.Add(hole)
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := parseFrame(data)
		if err != nil {
			return
		}
		back := appendFrame(nil, frame)
		if len(back) != FrameSize {
			t.Fatalf("re-encoded %d bytes", len(back))
		}
		again, err := parseFrame(back)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again != frame {
			t.Fatalf("round trip changed frame: %+v -> %+v", frame, again)
		}
	})
}

// FuzzRingCell: the cell word of 16 arbitrary bytes, stored at an
// arbitrary (ch, abs), stands for the datagram those bytes make with the
// cell's magic, channel and slot. It polls RingSkipped when the word is
// skipCell, RingOK as parseFrame's Frame when parseFrame accepts the
// datagram, and RingCorrupt otherwise; and Send hands exactly that
// datagram on for channel ch, or nothing for a skip.
func FuzzRingCell(f *testing.F) {
	f.Add(appendFrame(nil, Frame{Channel: 1, Slot: 42, Page: 7}), uint16(1), int64(42))
	f.Add(appendFrame(nil, Frame{Channel: 1, Slot: 42, Page: 7}), uint16(2), int64(42))
	f.Add(appendFrame(nil, Frame{Channel: 0, Slot: 0, Page: core.None}), uint16(0), int64(1<<32))
	f.Add(make([]byte, FrameSize), uint16(0), int64(0))
	hole := appendFrame(nil, Frame{Channel: 4, Slot: 21834, Page: 1})
	hole[corruptFlipOffset] ^= corruptFlipMask
	f.Add(hole, uint16(4), int64(21834))
	ring, err := NewBroadcastRing(maxFrameChannels, 1)
	if err != nil {
		f.Fatal(err)
	}
	rec := &recorder{channels: ring.Channels()}
	f.Fuzz(func(t *testing.T, data []byte, ch uint16, abs int64) {
		if len(data) != FrameSize {
			return
		}
		abs &= 1<<62 - 1 // a slot the ring can air: 2*abs+2 and abs+1 do not overflow
		w := cellWordOf(data)
		w0, w1 := cellFrameWords(int(ch), abs, w)
		var dgram [FrameSize]byte
		putFrameWords(&dgram, w0, w1)
		wantF, wantSt := Frame{}, RingSkipped
		if w != skipCell {
			wantSt = RingCorrupt
			if f, err := parseFrame(dgram[:]); err == nil {
				wantF, wantSt = f, RingOK
			}
		}
		storeCell(ring, int(ch), int(abs), w)
		if got, st := ring.Poll(int(ch), abs); got != wantF || st != wantSt {
			t.Fatalf("cell %x at (%d, %d): polled %+v/%v, want %+v/%v", data, ch, abs, got, st, wantF, wantSt)
		}
		rec.got = rec.got[:0]
		ring.Send(rec, int(abs))
		var sent []datagram
		for _, d := range rec.got {
			if d.ch == int(ch) {
				sent = append(sent, d)
			}
		}
		want := []datagram{{int(ch), int(abs), string(dgram[:])}}
		if w == skipCell {
			want = nil
		}
		if !slices.Equal(sent, want) {
			t.Fatalf("cell %x at (%d, %d): Send published %q, want %q", data, ch, abs, sent, want)
		}
	})
}

// gridProgram is a 3-channel program of the given length over 16 pages
// with page(ch, slot) in every cell that is not None.
func gridProgram(tb testing.TB, length int, page func(ch, slot int) core.PageID) *core.Program {
	tb.Helper()
	prog, err := core.NewProgram(core.MustGroupSet([]core.Group{{Time: 8, Count: 16}}), 3, length)
	if err != nil {
		tb.Fatal(err)
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		for slot := 0; slot < length; slot++ {
			if id := page(ch, slot); id != core.None {
				if err := prog.Place(ch, slot, id); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return prog
}

// hashFaults injects faults that are a pure function of (seed, ch, abs),
// so a test can tell which faults a cast injected.
type hashFaults struct{ seed uint64 }

func (h hashFaults) roll(ch, abs int) uint64 {
	x := h.seed ^ uint64(ch)<<40 ^ uint64(abs)
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func (h hashFaults) Stalled(abs int) bool     { return h.roll(1<<16, abs)%5 == 0 }
func (h hashFaults) Drop(ch, abs int) bool    { return h.roll(ch, abs)%4 == 0 }
func (h hashFaults) Corrupt(ch, abs int) bool { return h.roll(ch, abs)%4 == 1 }

// FuzzRingRowKinds airs an arbitrary interleaving of slot kinds into
// the same rows of a depth-4 ring — fault-free casts (epoch rows),
// faulted casts and slots stored cell by cell (dense rows) — at slots
// that advance by arbitrary steps, zero included, and polls arbitrary
// (channel, slot) pairs in between. Every poll must read as a reference
// model of the last slot aired into its row says: the slot's frame or
// fault status, RingLost for any other slot, RingPending from the head
// on. So a dense row must not read through a stale epoch reference, an
// epoch row must not expose cells of an earlier lap, and a stored cell
// after a fault-free cast of the same slot must open a dense row.
//
// The input is a sequence of ops, op%5 selecting: 0 a fault-free cast,
// 1 a faulted cast, 2 a stored slot (one more byte per channel: an
// intact frame's word, a skip, or a corrupted word), each after a step
// byte; 3 a poll of (channel byte, slots-back-from-head byte); 4
// staging the program not on air on the fault-free caster.
func FuzzRingRowKinds(f *testing.F) {
	// Stored slot, fault-free cast and stored slot at the same abs.
	f.Add([]byte{2, 1, 0, 1, 2, 0, 0, 2, 0, 0, 0, 0, 3, 0, 1, 3, 1, 1, 3, 2, 1})
	// Stored slot, then a fault-free cast one lap later.
	f.Add([]byte{2, 1, 1, 2, 0, 0, 4, 3, 0, 1, 3, 1, 1, 3, 2, 1, 3, 0, 5})
	// Fault-free cast, then a stored slot one lap later.
	f.Add([]byte{0, 1, 2, 4, 1, 0, 2, 3, 0, 1, 3, 1, 1, 3, 2, 1})
	// Faulted casts, a flip, polls reaching lapped and future slots.
	f.Add([]byte{1, 1, 1, 1, 4, 0, 3, 0, 1, 0, 1, 3, 2, 5, 1, 1, 3, 1, 2, 0, 2, 3, 0, 0})
	progA := gridProgram(f, 5, func(ch, slot int) core.PageID {
		if ch == 1 && slot == 2 {
			return core.None
		}
		return core.PageID((ch*5 + slot) % 16)
	})
	progB := gridProgram(f, 7, func(ch, slot int) core.PageID { return core.PageID((ch*7 + slot*3 + 1) % 16) })
	const depth = 4
	type poll struct {
		f  Frame
		st PollStatus
	}
	faults := hashFaults{seed: 1}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ring, err := NewBroadcastRing(progA.Channels(), depth)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := NewCaster(progA, ring, nil)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := NewCaster(progA, ring, faults)
		if err != nil {
			t.Fatal(err)
		}
		// model[row] is the last slot aired into the row and what each
		// channel polls as for it.
		var model [depth]struct {
			abs  int64
			want [3]poll
		}
		for i := range model {
			model[i].abs = -1
		}
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		abs := 0
		for len(ops) > 0 {
			switch op := next() % 5; op {
			case 0, 1, 2:
				abs += int(next() % (depth + 2))
				m := &model[abs%depth]
				m.abs = int64(abs)
				for ch := range m.want {
					m.want[ch] = poll{Frame{ch, uint32(abs), progA.AtAbs(ch, abs)}, RingOK}
				}
				switch op {
				case 0:
					clean.CastSlot(abs)
					ep := clean.Epoch()
					for ch := range m.want {
						m.want[ch].f.Page = ep.Program.AtAbs(ch, abs-ep.Base)
					}
				case 1:
					faulty.CastSlot(abs)
					for ch := range m.want {
						switch {
						case faults.Stalled(abs), faults.Drop(ch, abs):
							m.want[ch] = poll{st: RingSkipped}
						case faults.Corrupt(ch, abs):
							m.want[ch] = poll{st: RingCorrupt}
						}
					}
				case 2:
					for ch := range m.want {
						b := next()
						fr := Frame{ch, uint32(abs), core.PageID(b/3%17) - 1}
						w := cellWordOf(appendFrame(nil, fr))
						switch b % 3 {
						case 0:
							m.want[ch] = poll{fr, RingOK}
						case 1:
							w = skipCell
							m.want[ch] = poll{st: RingSkipped}
						case 2:
							w ^= cellCorruptFlip
							m.want[ch] = poll{st: RingCorrupt}
						}
						storeCell(ring, ch, abs, w)
					}
				}
			case 3:
				ch := int(next()) % ring.Channels()
				p := ring.Head() - int64(next()%(depth+3))
				w := poll{st: RingPending}
				if p >= 0 && p < ring.Head() {
					w = poll{st: RingLost}
					if m := model[p%depth]; m.abs == p {
						w = m.want[ch]
					}
				}
				if got, st := ring.Poll(ch, p); got != w.f || st != w.st {
					t.Fatalf("Poll(%d, %d) = %+v/%v, want %+v/%v", ch, p, got, st, w.f, w.st)
				}
			case 4:
				other := progB
				if clean.Epoch().Program == progB {
					other = progA
				}
				if err := clean.StageProgram(other); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
