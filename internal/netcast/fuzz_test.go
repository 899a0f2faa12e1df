package netcast

import (
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

// FuzzRingCell: 16 arbitrary bytes published at an arbitrary (ch, abs)
// poll RingOK as parseFrame's Frame exactly when parseFrame accepts them
// and they name the cell's channel and slot, and RingCorrupt otherwise.
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
	f.Fuzz(func(t *testing.T, data []byte, ch uint16, abs int64) {
		if len(data) != FrameSize {
			return
		}
		abs &= 1<<62 - 1 // a slot the ring can air: 2*abs+2 and abs+1 do not overflow
		want, err := parseFrame(data)
		ok := err == nil && want.Channel == int(ch) && want.Slot == uint32(abs)
		ring.Publish(int(ch), int(abs), data)
		ring.EndSlot(int(abs))
		got, st := ring.Poll(int(ch), abs)
		switch {
		case ok && (st != RingOK || got != want):
			t.Fatalf("frame %x at (%d, %d): polled %+v/%v, want %+v/RingOK", data, ch, abs, got, st, want)
		case !ok && st != RingCorrupt:
			t.Fatalf("frame %x at (%d, %d): polled %+v/%v, want RingCorrupt", data, ch, abs, got, st)
		}
	})
}
