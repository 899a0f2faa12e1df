package netcast

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"tcsa/internal/core"
)

// crcBitwise is CRC-16/CCITT computed one bit at a time, the definition
// frameSumWords's tables must reproduce.
func crcBitwise(data []byte) uint16 {
	crc := uint16(crcInit)
	for _, c := range data {
		crc ^= uint16(c) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// appendFrame encodes f onto buf with the checksum taken directly over
// the whole frame (frameSumWords): the oracle frameEncoder's split
// checksum must reproduce byte for byte.
func appendFrame(buf []byte, f Frame) []byte {
	w0 := uint64(frameMagic)<<48 | uint64(frameVersion)<<40 | uint64(uint16(f.Channel))<<16
	w1 := uint64(f.Slot)<<32 | uint64(uint32(f.Page))
	w0 |= uint64(frameSumWords(w0, w1))
	buf = binary.BigEndian.AppendUint64(buf, w0)
	return binary.BigEndian.AppendUint64(buf, w1)
}

// TestFrameEncoderMatchesOracle pins the slot-hoisted encoder to the
// direct CRC on every channel a frame can name, at the corner slots and
// pages and a few seeded random ones: its cell word must be the one
// packed from the oracle's wire bytes (cellWordOf), and must rebuild
// exactly those bytes — with and without the corruption flip, whose
// cell-word form must flip the same wire byte.
func TestFrameEncoderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	slots := []uint32{0, 1, 1 << 31, 1<<32 - 1, rng.Uint32(), rng.Uint32()}
	pages := []core.PageID{core.None, 0, 1<<31 - 1, core.PageID(rng.Int31()), core.PageID(rng.Int31n(1 << 20))}
	enc := newFrameEncoder(maxFrameChannels)
	var got [FrameSize]byte
	want := make([]byte, 0, FrameSize)
	for _, slot := range slots {
		slotTerm := slotWord(slot)
		abs := int(slot)
		for ch := 0; ch < maxFrameChannels; ch++ {
			for _, page := range pages {
				w := enc.word(ch, slotTerm, page)
				want = appendFrame(want[:0], Frame{Channel: ch, Slot: slot, Page: page})
				for _, flip := range []bool{false, true} {
					if flip {
						w ^= cellCorruptFlip
						want[corruptFlipOffset] ^= corruptFlipMask
					}
					if oracle := cellWordOf(want); w != oracle {
						t.Fatalf("channel %d slot %d page %d flip %v: cell word %#016x, oracle %#016x", ch, slot, page, flip, w, oracle)
					}
					w0, w1 := cellFrameWords(ch, int64(abs), w)
					putFrameWords(&got, w0, w1)
					if string(got[:]) != string(want) {
						t.Fatalf("channel %d slot %d page %d flip %v: encoded %x, oracle %x", ch, slot, page, flip, got, want)
					}
				}
			}
		}
	}
}

// sampleFrames is a fixed sample of frames: the corner values of every
// field, the frame the former 16-bit FNV fold let a flip through, and
// seeded random frames.
func sampleFrames(n int) []Frame {
	frames := []Frame{
		{Channel: 4, Slot: 21834, Page: 1},
		{Channel: 0, Slot: 0, Page: 0},
		{Channel: 0, Slot: 0, Page: core.None},
		{Channel: 0xffff, Slot: 0xffffffff, Page: 0x7fffffff},
	}
	rng := rand.New(rand.NewSource(1))
	for len(frames) < n {
		frames = append(frames, Frame{
			Channel: rng.Intn(1 << 16),
			Slot:    rng.Uint32(),
			Page:    core.PageID(rng.Int31n(1 << 20)),
		})
	}
	return frames
}

func TestFrameSumIsCRC16CCITT(t *testing.T) {
	if got := crcBitwise([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("reference CRC of the standard check string = %#04x, want 0x29b1", got)
	}
	for _, f := range sampleFrames(64) {
		b := appendFrame(nil, f)
		data := append(append([]byte(nil), b[:frameSumOff]...), b[frameSumOff+2:]...)
		want := crcBitwise(data)
		if got := frameSumWords(packFrameWords(b)); got != want {
			t.Errorf("%+v: frameSumWords %#04x, bitwise CRC %#04x", f, got, want)
		}
	}
}

// TestFrameChecksumCatchesFNVHole pins the frame whose corruption flip
// the former folded FNV-1a checksum accepted.
func TestFrameChecksumCatchesFNVHole(t *testing.T) {
	b := appendFrame(nil, Frame{Channel: 4, Slot: 21834, Page: 1})
	b[corruptFlipOffset] ^= corruptFlipMask
	if f, err := parseFrame(b); !errors.Is(err, ErrBadFrame) {
		t.Errorf("parseFrame accepted the corrupted frame as %+v", f)
	}
	if f, ok := frameFromWords(packFrameWords(b)); ok {
		t.Errorf("frameFromWords accepted the corrupted frame as %+v", f)
	}
}

// TestFrameChecksumCatchesEverySingleByteFlip flips every byte outside
// the checksum field with every non-zero mask, over a sample of frames,
// and requires both decoders to reject each result.
func TestFrameChecksumCatchesEverySingleByteFlip(t *testing.T) {
	for _, f := range sampleFrames(512) {
		clean := appendFrame(nil, f)
		b := make([]byte, FrameSize)
		for i := 0; i < FrameSize; i++ {
			if i == frameSumOff || i == frameSumOff+1 {
				continue
			}
			for mask := 1; mask < 256; mask++ {
				copy(b, clean)
				b[i] ^= byte(mask)
				got, err := parseFrame(b)
				if err == nil {
					t.Fatalf("%+v: flip %#02x at byte %d accepted by parseFrame as %+v", f, mask, i, got)
				}
				got, ok := frameFromWords(packFrameWords(b))
				if ok {
					t.Fatalf("%+v: flip %#02x at byte %d accepted by frameFromWords as %+v", f, mask, i, got)
				}
			}
		}
	}
}

// TestFrameV1RejectsNonZeroReserved pins that a version-1 frame with its
// checksum bytes set, the shape a version-2 frame takes when its version
// byte is corrupted to 1, is rejected by both decoders.
func TestFrameV1RejectsNonZeroReserved(t *testing.T) {
	b := appendFrame(nil, Frame{Channel: 1, Slot: 77, Page: 5})
	b[frameVersionOff] = 1
	binary.BigEndian.PutUint16(b[frameSumOff:], 0x0100)
	if _, err := parseFrame(b); !errors.Is(err, ErrBadFrame) {
		t.Errorf("parseFrame accepted a version-1 frame with reserved bytes set: %v", err)
	}
	if _, ok := frameFromWords(packFrameWords(b)); ok {
		t.Error("frameFromWords accepted a version-1 frame with reserved bytes set")
	}
}
