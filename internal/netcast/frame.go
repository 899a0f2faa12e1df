// Package netcast carries a broadcast program over real UDP sockets: the
// wireless "air" of the paper mapped onto the network stack. The server
// owns one UDP socket per broadcast channel and pushes one frame per slot
// to every subscribed tuner; tuners are single-channel receivers, exactly
// like the radio hardware the paper assumes — they subscribe to one
// channel socket at a time and retune by resubscribing elsewhere.
//
// The transport is deliberately datagram-based: broadcast pages are
// idempotent, self-contained and periodically retransmitted, so a lost
// frame costs one cycle of latency, never correctness — the same loss
// semantics as the air interface. Subscription uses two control datagrams
// ("SUB"/"UNS") on the same socket.
package netcast

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tcsa/internal/core"
)

// Wire format constants.
const (
	frameMagic uint16 = 0x7C5A // "tcsa"
	// frameVersion 2 adds a 16-bit payload checksum in the bytes version 1
	// reserved; parseFrame still accepts checksum-less version-1 frames
	// from older senders.
	frameVersion   byte = 2
	frameVersionV1 byte = 1
	// FrameSize is the fixed encoded size of a Frame in bytes.
	FrameSize = 16
	// maxFrameChannels is how many channels a frame can name: the channel
	// field is 16 bits, so a 65,537th channel would alias channel 0 on the
	// wire. The ring, the caster and the UDP transport refuse more.
	maxFrameChannels = 1 << 16
)

// Field offsets of the encoded frame; parseFrame indexes through these.
// frameEncoder and frameFromWords handle the same layout as two big-endian
// words: w0 holds bytes 0-7 (magic to checksum), w1 bytes 8-15.
const (
	frameMagicOff   = 0  // magic(2)
	frameVersionOff = 2  // version(1)
	frameFlagsOff   = 3  // flags(1)
	frameChannelOff = 4  // channel(2)
	frameSumOff     = 6  // checksum(2)
	frameSlotOff    = 8  // slot(4)
	framePageOff    = 12 // page(4)
)

// Fault injection flips exactly one payload byte after the checksum is
// computed. The probe sits inside the page field — payload, not framing —
// so a corrupted frame still looks like traffic from this protocol: a
// version-2 receiver rejects it by checksum, while a checksum-less
// version-1 receiver decodes a wrong page (the corruption version 2 was
// introduced to catch). cellCorruptFlip is the same flip in a frame's
// ring cell word, whose low four bytes are the page field in wire order.
const (
	corruptFlipOffset = framePageOff + 1
	corruptFlipMask   = 0xA5
	cellCorruptFlip   = uint64(corruptFlipMask) << (8 * (FrameSize - 1 - corruptFlipOffset))
)

// ErrBadFrame reports an undecodable datagram.
var ErrBadFrame = errors.New("netcast: bad frame")

// Frame is one slot's transmission on one channel.
//
// Encoding (big endian): magic(2) version(1) flags(1) channel(2)
// checksum(2) slot(4) page(4). Page -1 (empty slot) is carried as the
// two's-complement pattern. The checksum is frameSum over the other 14
// bytes; version-1 frames carried zeros there and are accepted unchecked
// when those bytes are still zero.
type Frame struct {
	Channel int
	Slot    uint32
	Page    core.PageID
}

// frameSum is a CRC-16/CCITT (polynomial 0x1021, initial value 0xFFFF)
// over the frame bytes outside the checksum field. A CRC whose generator
// has both end terms detects every error burst of up to 16 bits, so every
// single-byte corruption of the other 14 bytes is caught. b must hold a
// whole frame; the CRC runs over its packed words (frameSumWords).
func frameSum(b []byte) uint16 { return frameSumWords(packFrameWords(b)) }

const (
	crcPoly = 0x1021
	crcInit = 0xFFFF
)

// crcTable[k][v] is the CRC register after feeding byte v and then k zero
// bytes into a zero register. The CRC is linear, so feeding n bytes at
// once — the register XORed into the first two — is the XOR of one
// lookup per byte: crcTable[n-1] for the first, crcTable[0] for the last.
var crcTable = func() (t [8][256]uint16) {
	for v := range t[0] {
		crc := uint16(v) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		t[0][v] = crc
	}
	for k := 1; k < len(t); k++ {
		for v := range t[k] {
			t[k][v] = t[k-1][v]<<8 ^ t[0][t[k-1][v]>>8]
		}
	}
	return t
}()

// parseFrame decodes one datagram.
func parseFrame(b []byte) (Frame, error) {
	if len(b) != FrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(b))
	}
	if binary.BigEndian.Uint16(b[frameMagicOff:]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic %#x", ErrBadFrame, b[frameMagicOff:frameMagicOff+2])
	}
	switch b[frameVersionOff] {
	case frameVersion:
		if got, want := binary.BigEndian.Uint16(b[frameSumOff:]), frameSum(b); got != want {
			return Frame{}, fmt.Errorf("%w: checksum %#04x, computed %#04x", ErrBadFrame, got, want)
		}
	case frameVersionV1:
		// Pre-checksum wire format: the checksum bytes were reserved zeros.
		if sum := binary.BigEndian.Uint16(b[frameSumOff:]); sum != 0 {
			return Frame{}, fmt.Errorf("%w: version-1 reserved bytes %#04x", ErrBadFrame, sum)
		}
	default:
		return Frame{}, fmt.Errorf("%w: version %d", ErrBadFrame, b[frameVersionOff])
	}
	return Frame{
		Channel: int(binary.BigEndian.Uint16(b[frameChannelOff:])),
		Slot:    binary.BigEndian.Uint32(b[frameSlotOff:]),
		Page:    core.PageID(int32(binary.BigEndian.Uint32(b[framePageOff:]))),
	}, nil
}

// packFrameWords splits an encoded frame into the two big-endian machine
// words the broadcast ring stores atomically (FrameSize is exactly 16).
func packFrameWords(b []byte) (w0, w1 uint64) {
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// putFrameWords writes the two words back as the frame's 16 wire bytes.
func putFrameWords(b *[FrameSize]byte, w0, w1 uint64) {
	binary.BigEndian.PutUint64(b[0:8], w0)
	binary.BigEndian.PutUint64(b[8:16], w1)
}

// frameFromWords is parseFrame over the packed words the ring rebuilds
// from a cell: the same validation rules, no byte slice, no allocation on
// any path (the ring's subscriber hot loop calls this once per poll).
func frameFromWords(w0, w1 uint64) (Frame, bool) {
	if uint16(w0>>48) != frameMagic {
		return Frame{}, false
	}
	switch byte(w0 >> 40) {
	case frameVersion:
		if uint16(w0) != frameSumWords(w0, w1) {
			return Frame{}, false
		}
	case frameVersionV1:
		// Pre-checksum wire format: the checksum bytes were reserved zeros.
		if uint16(w0) != 0 {
			return Frame{}, false
		}
	default:
		return Frame{}, false
	}
	return Frame{
		Channel: int(uint16(w0 >> 16)),
		Slot:    uint32(w1 >> 32),
		Page:    core.PageID(int32(uint32(w1))),
	}, true
}

// frameSumWords is frameSum over the packed words. The checksum field is
// the low two bytes of w0, so the CRC takes w0's top six bytes in one step
// and w1's eight in a second, each step a tree of independent table
// lookups — cheap enough for the poll hot path. The publish path encodes
// through frameEncoder instead, which reuses the parts shared by a slot.
func frameSumWords(w0, w1 uint64) uint16 {
	t := &crcTable
	x := w0 ^ crcInit<<48
	crc := t[5][byte(x>>56)] ^ t[4][byte(x>>48)] ^ t[3][byte(x>>40)] ^
		t[2][byte(x>>32)] ^ t[1][byte(x>>24)] ^ t[0][byte(x>>16)]
	x = w1 ^ uint64(crc)<<48
	return t[7][byte(x>>56)] ^ t[6][byte(x>>48)] ^ t[5][byte(x>>40)] ^ t[4][byte(x>>32)] ^
		t[3][byte(x>>24)] ^ t[2][byte(x>>16)] ^ t[1][byte(x>>8)] ^ t[0][byte(x)]
}

// frameEncoder is the one frame encoder. Its output is the frame's ring
// cell word (ringCell): version, checksum and page, the bytes a frame's
// channel and slot do not imply. The ring stores the word as is; any
// other transport rebuilds the wire bytes from it (cellFrameWords).
//
// The second step of frameSumWords is linear in w1 (an XOR of one table
// lookup per byte), so a frame's checksum is the XOR of three terms:
//
//	channel term  frameSumWords(header, 0): magic, version, flags and the
//	              channel, with the register's initial value folded in —
//	              one per channel, tabulated once;
//	slot term     the slot's four bytes: shared by every channel of a slot,
//	              computed once per slot (slotWord);
//	page term     the page's four bytes: four lookups per frame (pageWord).
//
// The checksum is exactly that of the direct CRC over the whole frame.
type frameEncoder struct {
	// heads[ch] is channel ch's cell word with page zero and only the
	// channel term in the checksum field.
	heads []uint64
}

// newFrameEncoder tabulates the channel terms of channels 0..channels-1
// (at most maxFrameChannels).
func newFrameEncoder(channels int) frameEncoder {
	heads := make([]uint64, channels)
	for ch := range heads {
		heads[ch] = uint64(frameVersion)<<56 | uint64(frameSumWords(frameHeader(ch), 0))<<32
	}
	return frameEncoder{heads: heads}
}

// frameHeader is w0 of a current-version frame on channel ch, with no
// flags and the checksum field zero.
func frameHeader(ch int) uint64 {
	return uint64(frameMagic)<<48 | uint64(frameVersion)<<40 | uint64(uint16(ch))<<16
}

// slotWord is the slot term of the frame checksum (w1's top four bytes),
// placed in the cell word's checksum field.
func slotWord(slot uint32) uint64 {
	t := &crcTable
	return uint64(t[7][byte(slot>>24)]^t[6][byte(slot>>16)]^t[5][byte(slot>>8)]^t[4][byte(slot)]) << 32
}

// pageWord is the page's share of a cell word: the page term of the
// checksum (w1's low four bytes) in the checksum field, the page itself
// in the page field.
func pageWord(page core.PageID) uint64 {
	t := &crcTable
	p := uint32(page)
	return uint64(t[3][byte(p>>24)]^t[2][byte(p>>16)]^t[1][byte(p>>8)]^t[0][byte(p)])<<32 | uint64(p)
}

// word encodes channel ch's frame carrying page as its cell word, in the
// slot whose slot term the caller computed once as slotWord(slot).
func (e frameEncoder) word(ch int, slotTerm uint64, page core.PageID) uint64 {
	return e.heads[ch] ^ slotTerm ^ pageWord(page)
}

// Control datagrams.
var (
	subscribeMsg   = []byte("SUB")
	unsubscribeMsg = []byte("UNS")
)
