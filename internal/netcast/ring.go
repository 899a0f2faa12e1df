package netcast

import (
	"errors"
	"fmt"
	"sync/atomic"
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
	// (bad checksum): the wire-level corruption the chaos plan injects.
	RingCorrupt
	// RingLost: the slot has already been overwritten — the reader fell
	// more than one ring length behind the writer.
	RingLost
)

// ringCell is one channel's frame in one slot, as the two packed
// big-endian words of the encoding, so readers snapshot it with plain
// atomic loads — no lock, no copy of a byte slice, and no race-detector
// report, because every access is an atomic operation. A w0 of
// skipMarker records that the channel transmitted nothing in the slot.
type ringCell struct {
	w0 atomic.Uint64
	w1 atomic.Uint64
}

// skipMarker is the w0 a skipped channel writes into its cell. A real
// frame never has it: every encoded frame carries frameMagic in w0's top
// two bytes.
const skipMarker = 0

// maxRingCells caps a ring's channels × depth cells (4 GiB of frames):
// the grid is one allocation sized from caller input. The depth alone is
// checked against it before rounding up, so the rounding cannot overflow,
// and the product is checked by division, so it cannot overflow either.
const maxRingCells = 1 << 28

// BroadcastRing is the in-process Transport: the program's channels ×
// slots grid kept slot-major, one row per aired slot, exactly as the air
// transmits it. The writer does O(1) work per (channel, slot) no matter
// how many subscribers exist — subscribers pull, lock-free, with zero
// allocations per poll — so one server saturates millions of in-process
// clients.
//
// Row abs&mask holds every channel's cell for slot abs side by side, so
// a cast writes one contiguous row. The row is guarded by one seqlock
// stamp carrying the absolute slot number:
//
//	2*abs+1  row being written for slot abs
//	2*abs+2  row stable for slot abs (readable)
//
// and the ring-wide head (slots aired) is stored after the stable stamp.
// A reader that sees head > abs therefore finds row abs stable or
// already lapped, never mid-write for abs itself; folding abs into the
// stamp makes the lap check free. The reader loads the stamp, the two
// cell words, then the stamp again, and trusts the words only when the
// same even stamp brackets both loads — so it either gets the exact frame
// for the slot it asked for, or a definite RingLost, never a torn read.
//
// A skipped channel writes skipMarker, so a row never exposes the frame
// its cell held one ring length earlier.
type BroadcastRing struct {
	cells    []ringCell      // slot-major: row i is cells[i*channels:][:channels]
	stamps   []atomic.Uint64 // one seqlock stamp per row
	head     atomic.Int64
	channels int
	mask     int64
	open     int64 // the slot whose row is being written; writer-owned
}

// DefaultRingSlots is the ring depth used when a caller passes
// slots <= 0: enough slack for a reader to fall a full kilocycle of
// slots behind before losing data.
const DefaultRingSlots = 1024

// NewBroadcastRing builds a ring transport with the given channel count.
// slots (rounded up to a power of two; DefaultRingSlots if <= 0) is how
// many consecutive slots stay readable. It fails when channels × depth
// exceeds 2^28 cells.
func NewBroadcastRing(channels, slots int) (*BroadcastRing, error) {
	if channels <= 0 {
		return nil, errors.New("netcast: ring needs at least one channel")
	}
	if slots <= 0 {
		slots = DefaultRingSlots
	}
	if slots > maxRingCells {
		return nil, fmt.Errorf("netcast: ring depth %d exceeds %d slots", slots, maxRingCells)
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	if channels > maxRingCells/n {
		return nil, fmt.Errorf("netcast: ring of %d channels x %d slots exceeds %d cells", channels, n, maxRingCells)
	}
	return &BroadcastRing{
		cells:    make([]ringCell, channels*n),
		stamps:   make([]atomic.Uint64, n),
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

// cell returns channel ch's cell in slot abs's row, stamping the row as
// being written the first time the slot is touched.
func (r *BroadcastRing) cell(ch, abs int) *ringCell {
	if a := int64(abs); a != r.open {
		r.open = a
		r.stamps[a&r.mask].Store(2*uint64(a) + 1)
	}
	return &r.row(int64(abs))[ch]
}

// Publish implements Transport. The ring has a single writer: one
// goroutine publishes or skips every channel of a slot, then ends it.
func (r *BroadcastRing) Publish(ch, abs int, frame []byte) {
	w0, w1 := packFrameWords(frame)
	c := r.cell(ch, abs)
	c.w0.Store(w0)
	c.w1.Store(w1)
}

// Skip implements Transport: the slot airs with nothing on channel ch.
// The cell gets the skip marker in place of the frame it held one ring
// length ago, which Poll reports as RingSkipped.
func (r *BroadcastRing) Skip(ch, abs int) {
	r.cell(ch, abs).w0.Store(skipMarker)
}

// EndSlot implements Transport: slot abs's row is complete. Its stamp
// turns stable, then the head moves past it.
func (r *BroadcastRing) EndSlot(abs int) {
	r.stamps[int64(abs)&r.mask].Store(2*uint64(abs) + 2)
	r.head.Store(int64(abs) + 1)
}

// Close implements Transport. The ring holds no OS resources and spawns
// no goroutines; readers may keep polling historical slots after Close.
func (r *BroadcastRing) Close() error { return nil }

// Head reports how many slots the ring has aired (the next absolute slot
// to be published), on every channel at once.
func (r *BroadcastRing) Head() int64 { return r.head.Load() }

// Poll reads absolute slot abs from channel ch. It never blocks and
// never allocates. RingOK returns the decoded frame; every other status
// returns a zero Frame.
func (r *BroadcastRing) Poll(ch int, abs int64) (Frame, PollStatus) {
	if r.head.Load() <= abs {
		return Frame{}, RingPending
	}
	stamp := &r.stamps[abs&r.mask]
	cell := &r.row(abs)[ch]
	want := 2*uint64(abs) + 2
	// The head passed abs, so the row is stable for abs or a newer slot.
	if stamp.Load() != want {
		return Frame{}, RingLost
	}
	w0 := cell.w0.Load()
	w1 := cell.w1.Load()
	if stamp.Load() != want {
		// A writer lapped us between the stamp check and the word loads:
		// the words may be torn, discard them.
		return Frame{}, RingLost
	}
	if w0 == skipMarker {
		return Frame{}, RingSkipped
	}
	f, ok := frameFromWords(w0, w1)
	if !ok {
		return Frame{}, RingCorrupt
	}
	return f, RingOK
}
