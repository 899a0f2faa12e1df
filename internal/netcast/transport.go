package netcast

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tcsa/internal/core"
)

// Transport is the fan-out substrate a broadcast slot engine publishes
// through. The engine (Caster) does the per-(channel, slot) work that is
// independent of the subscriber count — claiming the column, injecting
// faults, encoding the frame once — and the transport does the delivery:
// over UDP sockets to every subscriber, or into the in-process broadcast
// ring subscribers read lock-free.
type Transport interface {
	// Channels reports the channel count the transport was built for.
	Channels() int
	// NeedsFrame reports whether channel ch wants a frame published even
	// though the engine might know of nothing listening. Transports whose
	// per-slot delivery cost scales with the subscriber count (UDP)
	// return false for silent channels so the engine can skip the encode
	// and fault work; transports with O(1) delivery cost (the ring)
	// always return true — late subscribers can still read the slot.
	NeedsFrame(ch int) bool
	// Publish delivers the encoded frame (FrameSize bytes) for channel ch
	// at absolute slot abs. The buffer is reused by the caller:
	// implementations must copy what they need before returning.
	Publish(ch, abs int, frame []byte)
	// Skip records that channel ch transmits nothing at slot abs — a
	// stall, an injected drop, or a silent channel. The ring writes a
	// skip marker into the channel's cell so subscribers read "aired
	// empty", not the frame the cell held one ring length earlier; UDP
	// has nothing to do (a missing datagram is the loss).
	Skip(ch, abs int)
	// EndSlot marks slot abs complete: every channel has been published
	// or skipped. The ring makes the slot readable on every channel at
	// once; UDP has nothing to do.
	EndSlot(abs int)
	// Close releases the transport's resources and stops its workers.
	// Safe to call more than once.
	Close() error
}

// FaultStats counts the faults a slot engine has injected so far.
type FaultStats struct {
	StalledSlots  int64 // whole slots silenced across all channels
	DroppedFrames int64 // per-channel frames suppressed
	CorruptFrames int64 // per-channel frames sent with a flipped byte
}

// EpochInfo describes a program epoch the caster airs: the program, the
// absolute slot where its phase 0 started, and how many flips preceded it.
type EpochInfo struct {
	// Seq counts completed epoch flips; 0 is the bootstrap epoch.
	Seq int
	// Base is the absolute slot at which this epoch's column 0 aired (or
	// will air: the bootstrap epoch has Base 0 even before the first cast).
	Base int
	// Program is this epoch's broadcast program. Epochs are copy-on-write:
	// the program behind an EpochInfo is never mutated, a replan stages a
	// fresh snapshot instead.
	Program *core.Program
}

// Caster is the transport-independent slot engine: one call per absolute
// slot encodes each channel's frame exactly once and publishes it through
// the Transport, with fault injection applied in the same priority order
// as the chaos measurement engine (stall, then drop, then corruption).
//
// The caster owns the live-transition protocol. A replan stages its new
// program with StageProgram; the cast loop keeps airing the old epoch and
// flips exactly at the next slot that starts an old-program cycle — the
// boundary replan.SpliceBounds assumes: the old epoch runs to the end of
// its cycle, the new one starts at phase zero. The flip is a pointer swap
// between two immutable snapshots, so no slot is ever paused and no frame
// mixes epochs; clients' extra wait across the boundary is bounded by
// replan.SpliceBounds and checked by the
// conformance.TransitionBound oracle in the package tests.
//
// CastSlot is not safe for concurrent use — one goroutine (the server's
// tick loop, or a load generator's virtual-time broadcaster) owns the
// cast sequence. StageProgram, Epoch and Faults may be called
// concurrently with it.
type Caster struct {
	epoch     *EpochInfo                // owned by the cast goroutine
	published atomic.Pointer[EpochInfo] // last flipped epoch, for observers
	staged    atomic.Pointer[core.Program]
	tr        Transport
	ring      *BroadcastRing // tr itself when it is the ring: CastSlot writes whole rows
	fault     FaultInjector
	enc       frameEncoder
	frame     [FrameSize]byte

	stalledSlots  atomic.Int64
	droppedFrames atomic.Int64
	corruptFrames atomic.Int64
}

// NewCaster builds a slot engine for prog over tr. fault may be nil
// (fault-free air). The program may have at most 65,536 channels, what a
// frame's channel field can name.
//
// prog must not be mutated once cast (pass core.Analysis.Program or a
// replan.Engine Snapshot): a fault-free BroadcastRing's rows reference
// the program, and its subscribers read pages from it for as long as
// those rows stay in the ring.
func NewCaster(prog *core.Program, tr Transport, fault FaultInjector) (*Caster, error) {
	if prog == nil {
		return nil, errors.New("netcast: nil program")
	}
	if tr == nil {
		return nil, errors.New("netcast: nil transport")
	}
	if tr.Channels() != prog.Channels() {
		return nil, errors.New("netcast: transport/program channel count mismatch")
	}
	if prog.Channels() > maxFrameChannels {
		return nil, fmt.Errorf("netcast: program of %d channels exceeds the frame's %d", prog.Channels(), maxFrameChannels)
	}
	ring, _ := tr.(*BroadcastRing)
	c := &Caster{
		epoch: &EpochInfo{Seq: 0, Base: 0, Program: prog},
		tr:    tr,
		ring:  ring,
		fault: fault,
		enc:   newFrameEncoder(prog.Channels()),
	}
	c.published.Store(c.epoch)
	return c, nil
}

// StageProgram hands the caster the next epoch's program. The cast loop
// flips to it at the next slot that starts a cycle of the airing epoch;
// until then the old program keeps airing without a pause. The program
// must not be mutated after staging (pass a snapshot — replan.Engine's
// Snapshot is the production source): on a fault-free BroadcastRing its
// subscribers read pages from it for as long as its rows stay in the
// ring, past the next flip. Staging again before the flip
// replaces the pending program: the last staged snapshot wins. The
// channel count must match the transport: the broadcast spectrum is
// fixed hardware here, only the schedule is elastic.
func (c *Caster) StageProgram(next *core.Program) error {
	if next == nil {
		return errors.New("netcast: nil program")
	}
	if next.Channels() != c.tr.Channels() {
		return errors.New("netcast: staged program channel count mismatch")
	}
	c.staged.Store(next)
	return nil
}

// Epoch reports the epoch currently on air. Safe to call concurrently
// with CastSlot; during a flip it returns either the old or the new epoch,
// never a torn mix.
func (c *Caster) Epoch() EpochInfo { return *c.published.Load() }

// CastSlot encodes and publishes absolute slot abs on every channel, then
// ends the slot on the transport. The checksum's slot term is computed
// once for the slot, so each frame adds only its page term (frameEncoder).
//
// Into a BroadcastRing the slot is cast as one row. Fault-free, it is an
// epoch row: the row references the epoch on air, O(1) per slot, and
// subscribers read each page from its program. Under a fault injector it
// is a dense row: each channel's cell word is stored straight into its
// cell, with no call through Transport and no wire bytes. A dropped or
// stalled frame stores skipCell, a corrupted one its word with the page
// byte flipped, the same flip the wire carries. Every other transport
// gets the frame's wire bytes through Publish, or a Skip.
func (c *Caster) CastSlot(abs int) {
	if st := c.staged.Load(); st != nil && c.epoch.Program.Column(abs-c.epoch.Base) == 0 {
		// Start of an old-epoch cycle: flip. The CAS tolerates a racing
		// StageProgram — a snapshot staged after the Load simply waits for
		// the next boundary.
		if c.staged.CompareAndSwap(st, nil) {
			c.epoch = &EpochInfo{Seq: c.epoch.Seq + 1, Base: abs, Program: st}
			c.published.Store(c.epoch)
		}
	}
	if c.ring != nil && c.fault == nil {
		c.ring.castEpoch(abs, c.epoch, c.epoch.Program.Column(abs-c.epoch.Base))
		return
	}
	if c.fault != nil && c.fault.Stalled(abs) {
		// The slot counter still advances during a stall: broadcast time
		// is locked to the clock, a stalled server simply wastes the slot.
		c.stalledSlots.Add(1)
		if c.ring != nil {
			row := c.ring.openRow(abs)
			for ch := range row {
				row[ch].word.Store(skipCell)
			}
		} else {
			for ch := 0; ch < c.tr.Channels(); ch++ {
				c.tr.Skip(ch, abs)
			}
		}
		c.tr.EndSlot(abs)
		return
	}
	prog := c.epoch.Program
	col := prog.Column(abs - c.epoch.Base)
	slotTerm := slotWord(uint32(abs))
	if c.ring != nil {
		row := c.ring.openRow(abs)
		for ch := range row {
			row[ch].word.Store(c.faulted(ch, abs, c.enc.word(ch, slotTerm, prog.At(ch, col))))
		}
		c.ring.EndSlot(abs)
		return
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		if !c.tr.NeedsFrame(ch) {
			// Nobody is listening and the transport pays per subscriber:
			// skip the fault predicates and the encode outright. A frame
			// that was never sent cannot be dropped or corrupted, so the
			// fault counters only ever account for channels with
			// listeners on this path.
			c.tr.Skip(ch, abs)
			continue
		}
		w := c.enc.word(ch, slotTerm, prog.At(ch, col))
		if c.fault != nil {
			w = c.faulted(ch, abs, w)
		}
		if w == skipCell {
			c.tr.Skip(ch, abs)
			continue
		}
		w0, w1 := cellFrameWords(ch, int64(abs), w)
		putFrameWords(&c.frame, w0, w1)
		c.tr.Publish(ch, abs, c.frame[:])
	}
	c.tr.EndSlot(abs)
}

// faulted applies the injector's per-frame faults to channel ch's cell
// word w at slot abs, drop before corruption, and counts them: a dropped
// frame becomes skipCell, a corrupted one has a page byte flipped after
// the checksum was computed, so every receiver's checksum rejects it.
func (c *Caster) faulted(ch, abs int, w uint64) uint64 {
	if c.fault.Drop(ch, abs) {
		c.droppedFrames.Add(1)
		return skipCell
	}
	if c.fault.Corrupt(ch, abs) {
		c.corruptFrames.Add(1)
		return w ^ cellCorruptFlip
	}
	return w
}

// Faults reports the faults injected so far. Safe to call concurrently
// with CastSlot.
func (c *Caster) Faults() FaultStats {
	return FaultStats{
		StalledSlots:  c.stalledSlots.Load(),
		DroppedFrames: c.droppedFrames.Load(),
		CorruptFrames: c.corruptFrames.Load(),
	}
}
