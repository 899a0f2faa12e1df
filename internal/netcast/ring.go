package netcast

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tcsa/internal/core"
)

// PollStatus classifies the outcome of reading one slot from a
// BroadcastRing.
type PollStatus int

const (
	// RingOK: the slot's frame was read intact.
	RingOK PollStatus = iota
	// RingPending: the server has not aired the slot yet.
	RingPending
	// RingSkipped: the slot aired but this channel transmitted nothing —
	// a stall, an injected drop, or a channel the engine silenced.
	RingSkipped
	// RingCorrupt: a frame was transmitted but fails frame validation
	// (bad checksum, the wire-level corruption the chaos plan injects) or
	// names another channel or slot than the cell it was published to.
	RingCorrupt
	// RingLost: the slot has already been overwritten — the reader fell
	// more than one ring length behind the writer.
	RingLost
)

// ringCell is one channel's frame in one slot, packed into one word so
// the writer publishes it with a single atomic store and readers snapshot
// it with a single atomic load — no lock, no copy of a byte slice, and no
// race-detector report, because every access is an atomic operation.
//
// The word keeps the frame bytes its position does not imply:
//
//	bits 63-56  version
//	bits 55-48  flags
//	bits 47-32  checksum
//	bits 31-0   page
//
// The magic, the channel and the slot are not stored: the channel is the
// cell's column in its row and the slot is the abs the row's stamp
// carries, so Poll rebuilds the two wire words from (ch, abs, word) and
// validates them, checksum included, exactly as a received datagram.
type ringCell struct {
	word atomic.Uint64
}

// Two cell words no valid frame produces, since both carry version 0:
// skipCell records that the channel transmitted nothing in the slot, and
// corruptCell stands for a published frame whose magic, channel or slot
// disagrees with its cell (or that would otherwise read as skipCell), so
// it polls RingCorrupt like any frame that fails validation.
const (
	skipCell    uint64 = 0
	corruptCell uint64 = 1
)

// cellHeaderMask selects the magic and channel fields of a frame's w0.
const cellHeaderMask = 0xFFFF_0000_FFFF_0000

// cellWord packs the frame (w0, w1) published on channel ch at slot abs
// into its cell word.
func cellWord(ch, abs int, w0, w1 uint64) uint64 {
	if w0&cellHeaderMask != uint64(frameMagic)<<48|uint64(uint16(ch))<<16 || uint32(w1>>32) != uint32(abs) {
		return corruptCell
	}
	w := (w0>>32&0xFFFF)<<48 | (w0&0xFFFF)<<32 | w1&0xFFFF_FFFF
	if w == skipCell {
		return corruptCell
	}
	return w
}

// cellFrameWords rebuilds the two wire words of the frame channel ch's
// cell word w holds for slot abs.
func cellFrameWords(ch int, abs int64, w uint64) (w0, w1 uint64) {
	w0 = uint64(frameMagic)<<48 | (w>>48)<<32 | uint64(uint16(ch))<<16 | w>>32&0xFFFF
	w1 = uint64(uint32(abs))<<32 | w&0xFFFF_FFFF
	return w0, w1
}

// BroadcastRing is the in-process Transport: the program's channels ×
// slots grid kept slot-major, one row per aired slot, exactly as the air
// transmits it. The writer does O(1) work per slot on fault-free air and
// per (channel, slot) on faulted air, no matter how many subscribers
// exist — subscribers pull, lock-free, with zero allocations per poll —
// so one server saturates millions of in-process clients.
//
// A row is one of two kinds. An epoch row references the epoch it airs
// (rowHead.src): on fault-free air the slot's frames are a pure function
// of the epoch's program and abs, so the caster stores one pointer and
// the program column, and Poll reads the page straight from the
// immutable program. A dense row (src nil) holds every channel's 8-byte
// cell for slot abs side by side, written one atomic store per frame: a
// faulted cast, Publish and Skip write dense rows, and opening one
// clears src.
//
// Either kind is guarded by the row's seqlock stamp carrying the
// absolute slot number:
//
//	2*abs+1  row being written for slot abs
//	2*abs+2  row stable for slot abs (readable)
//
// and the ring-wide head (slots aired) is stored after the stable stamp.
// A reader that sees head > abs therefore finds row abs stable or
// already lapped, never mid-write for abs itself; folding abs into the
// stamp makes the lap check free. The reader loads the stamp, the row's
// src, then its column (epoch row) or the cell word (dense row), then
// the stamp again, and trusts what it read only when the same even
// stamp brackets the loads — so it either gets the exact frame for the
// slot it asked for, or a definite RingLost, never a torn read.
//
// A skipped channel writes skipCell, so a dense row never exposes the
// frame its cell held one ring length earlier, and an epoch row never
// reads its cells at all.
type BroadcastRing struct {
	cells    []ringCell // slot-major: row i is cells[i*channels:][:channels]
	heads    []rowHead  // one per row
	head     atomic.Int64
	channels int
	mask     int64
	open     int64 // the slot whose dense row is being written, or -1; writer-owned
}

// rowHead is one row's seqlock stamp and, in an epoch row, the epoch
// whose program the row airs (nil in a dense row) and the program column
// the row's slot airs, so a poll reads its page without a division.
type rowHead struct {
	stamp atomic.Uint64
	src   atomic.Pointer[EpochInfo]
	col   atomic.Int64
}

// DefaultRingSlots is the ring depth used when a caller passes
// slots <= 0: enough slack for a reader to fall a full kilocycle of
// slots behind before losing data.
const DefaultRingSlots = 1024

// NewBroadcastRing builds a ring transport with the given channel count
// (at most 65,536, what a frame's channel field can name). slots (rounded
// up to a power of two; DefaultRingSlots if <= 0) is how many consecutive
// slots stay readable. The grid is one allocation sized from caller
// input, so channels × depth is capped at core.MaxCells cells (2 GiB of
// 8-byte cells): the depth alone is checked before rounding up, so the
// rounding cannot overflow, and the product is checked by division, so
// it cannot overflow either.
func NewBroadcastRing(channels, slots int) (*BroadcastRing, error) {
	if channels <= 0 {
		return nil, errors.New("netcast: ring needs at least one channel")
	}
	if channels > maxFrameChannels {
		return nil, fmt.Errorf("netcast: ring of %d channels exceeds the frame's %d", channels, maxFrameChannels)
	}
	if slots <= 0 {
		slots = DefaultRingSlots
	}
	if slots > core.MaxCells {
		return nil, fmt.Errorf("netcast: ring depth %d exceeds %d slots", slots, core.MaxCells)
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	if channels > core.MaxCells/n {
		return nil, fmt.Errorf("netcast: ring of %d channels x %d slots exceeds %d cells", channels, n, core.MaxCells)
	}
	return &BroadcastRing{
		cells:    make([]ringCell, channels*n),
		heads:    make([]rowHead, n),
		channels: channels,
		mask:     int64(n) - 1,
		open:     -1,
	}, nil
}

// Channels implements Transport.
func (r *BroadcastRing) Channels() int { return r.channels }

// NeedsFrame implements Transport. The ring always wants the frame:
// publishing costs O(1) regardless of subscribers, and a slot written
// now is readable by a subscriber that arrives later.
func (r *BroadcastRing) NeedsFrame(ch int) bool { return true }

// Slots reports the ring depth: how many consecutive slots stay readable.
func (r *BroadcastRing) Slots() int { return int(r.mask) + 1 }

// row returns slot abs's row of cells, one per channel.
func (r *BroadcastRing) row(abs int64) []ringCell {
	i := int(abs&r.mask) * r.channels
	return r.cells[i : i+r.channels : i+r.channels]
}

// openRow stamps slot abs's row as a dense row being written and
// returns it. The caster fills every cell of the row itself, then ends
// the slot.
func (r *BroadcastRing) openRow(abs int) []ringCell {
	a := int64(abs)
	h := &r.heads[a&r.mask]
	r.open = a
	h.stamp.Store(2*uint64(a) + 1)
	// src has one writer, this goroutine, so the load is exact; a row
	// that was dense one lap ago skips the second atomic store.
	if h.src.Load() != nil {
		h.src.Store(nil)
	}
	return r.row(a)
}

// castEpoch airs slot abs as an epoch row and ends the slot: the row's
// frames are column col of e.Program, and no cell is written. A later
// Publish or Skip, even at abs, opens a dense row again.
func (r *BroadcastRing) castEpoch(abs int, e *EpochInfo, col int) {
	a := int64(abs)
	h := &r.heads[a&r.mask]
	r.open = -1
	h.stamp.Store(2*uint64(a) + 1)
	h.src.Store(e)
	h.col.Store(int64(col))
	r.EndSlot(abs)
}

// cell returns channel ch's cell in slot abs's row, stamping the row as
// being written the first time the slot is touched.
func (r *BroadcastRing) cell(ch, abs int) *ringCell {
	if int64(abs) != r.open {
		return &r.openRow(abs)[ch]
	}
	return &r.row(int64(abs))[ch]
}

// Publish implements Transport with one atomic store. The ring has a
// single writer: one goroutine publishes or skips every channel of a
// slot, then ends it. A frame whose magic, channel or slot disagrees with
// (ch, abs) is stored as corrupt.
func (r *BroadcastRing) Publish(ch, abs int, frame []byte) {
	w0, w1 := packFrameWords(frame)
	r.cell(ch, abs).word.Store(cellWord(ch, abs, w0, w1))
}

// Skip implements Transport: the slot airs with nothing on channel ch.
// The cell gets skipCell in place of the frame it held one ring length
// ago, which Poll reports as RingSkipped.
func (r *BroadcastRing) Skip(ch, abs int) {
	r.cell(ch, abs).word.Store(skipCell)
}

// EndSlot implements Transport: slot abs's row is complete. Its stamp
// turns stable, then the head moves past it.
func (r *BroadcastRing) EndSlot(abs int) {
	r.heads[int64(abs)&r.mask].stamp.Store(2*uint64(abs) + 2)
	r.head.Store(int64(abs) + 1)
}

// Close implements Transport. The ring holds no OS resources and spawns
// no goroutines; readers may keep polling historical slots after Close.
func (r *BroadcastRing) Close() error { return nil }

// Head reports how many slots the ring has aired (the next absolute slot
// to be published), on every channel at once.
func (r *BroadcastRing) Head() int64 { return r.head.Load() }

// Poll reads absolute slot abs from channel ch. It never blocks and
// never allocates. RingOK returns the frame; every other status returns a
// zero Frame. A negative slot never airs, so it polls RingPending.
//
// An epoch row polls RingOK with the page its epoch's program airs at
// abs. A dense row's cell word is validated like a received datagram,
// checksum included.
func (r *BroadcastRing) Poll(ch int, abs int64) (Frame, PollStatus) {
	// One unsigned compare: a negative abs reads as at least 2^63, past
	// any head.
	if uint64(abs) >= uint64(r.head.Load()) {
		return Frame{}, RingPending
	}
	h := &r.heads[abs&r.mask]
	cell := &r.row(abs)[ch]
	want := 2*uint64(abs) + 2
	// The head passed abs, so the row is stable for abs or a newer slot.
	if h.stamp.Load() != want {
		return Frame{}, RingLost
	}
	src := h.src.Load()
	var w uint64
	var col int64
	if src == nil {
		w = cell.word.Load()
	} else {
		col = h.col.Load()
	}
	if h.stamp.Load() != want {
		// A writer lapped us between the stamp check and the last load:
		// what it read may belong to a newer slot, discard it.
		return Frame{}, RingLost
	}
	if src != nil {
		return Frame{Channel: ch, Slot: uint32(abs), Page: src.Program.At(ch, int(col))}, RingOK
	}
	if w == skipCell {
		return Frame{}, RingSkipped
	}
	f, ok := frameFromWords(cellFrameWords(ch, abs, w))
	if !ok {
		return Frame{}, RingCorrupt
	}
	return f, RingOK
}
