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
