package netcast

import (
	"errors"
	"sync/atomic"

	"tcsa/internal/core"
)

// Transport is the frame sink a Server feeds. On each tick the server
// casts the slot into its ring and hands every channel's frame to
// Publish (BroadcastRing.Send); the UDP transport fans each out to the
// channel's subscribers.
type Transport interface {
	// Channels reports the channel count the transport was built for.
	Channels() int
	// Publish delivers the encoded frame (FrameSize bytes) for channel ch
	// at absolute slot abs. A channel that transmits nothing in the slot,
	// stalled or dropped, gets no call. The buffer is reused by the
	// caller: implementations must copy what they need before returning.
	Publish(ch, abs int, frame []byte)
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

// Caster is the slot engine: one call per absolute slot casts the slot
// as one row of a BroadcastRing, its only output, with fault injection
// applied in the same priority order as the chaos measurement engine
// (stall, then drop, then corruption). Faults are drawn once per
// (channel, slot), whoever reads the row, so Faults counts what the plan
// injected.
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
	ring      *BroadcastRing
	fault     FaultInjector

	stalledSlots  atomic.Int64
	droppedFrames atomic.Int64
	corruptFrames atomic.Int64
}

// NewCaster builds a slot engine for prog over ring. fault may be nil
// (fault-free air). The ring's channel count must be the program's, so
// the program has at most 65,536 channels, what a frame's channel field
// can name.
//
// prog must not be mutated once cast (pass core.Analysis.Program or a
// replan.Engine Snapshot): a fault-free cast's rows reference the
// program, and the ring's readers read pages from it for as long as
// those rows stay in the ring.
func NewCaster(prog *core.Program, ring *BroadcastRing, fault FaultInjector) (*Caster, error) {
	if prog == nil {
		return nil, errors.New("netcast: nil program")
	}
	if ring == nil {
		return nil, errors.New("netcast: nil ring")
	}
	if ring.Channels() != prog.Channels() {
		return nil, errors.New("netcast: ring/program channel count mismatch")
	}
	c := &Caster{
		epoch: &EpochInfo{Seq: 0, Base: 0, Program: prog},
		ring:  ring,
		fault: fault,
	}
	c.published.Store(c.epoch)
	return c, nil
}

// StageProgram hands the caster the next epoch's program. The cast loop
// flips to it at the next slot that starts a cycle of the airing epoch;
// until then the old program keeps airing without a pause. The program
// must not be mutated after staging (pass a snapshot — replan.Engine's
// Snapshot is the production source): on fault-free air the ring's
// readers read pages from it for as long as its rows stay in the ring,
// past the next flip. Staging again before the flip replaces the pending
// program: the last staged snapshot wins. The channel count must match
// the ring: the broadcast spectrum is fixed hardware here, only the
// schedule is elastic.
func (c *Caster) StageProgram(next *core.Program) error {
	if next == nil {
		return errors.New("netcast: nil program")
	}
	if next.Channels() != c.ring.Channels() {
		return errors.New("netcast: staged program channel count mismatch")
	}
	c.staged.Store(next)
	return nil
}

// Epoch reports the epoch currently on air. Safe to call concurrently
// with CastSlot; during a flip it returns either the old or the new epoch,
// never a torn mix.
func (c *Caster) Epoch() EpochInfo { return *c.published.Load() }

// CastSlot casts absolute slot abs on every channel as the ring's row
// for abs, then ends the slot. Fault-free, it is an epoch row: the row
// references the epoch on air, O(1) per slot, and readers take each page
// from its program. Under a fault injector it is a dense row: each
// channel's cell word is stored straight into its cell. A stalled slot
// or a dropped frame stores skipCell, a corrupted frame its word with
// the page byte flipped, the same flip the wire carries. The checksum's
// slot term is computed once for the slot, so each frame adds only its
// page term (frameEncoder).
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
	prog := c.epoch.Program
	col := prog.Column(abs - c.epoch.Base)
	if c.fault == nil {
		c.ring.castEpoch(abs, c.epoch, col)
		return
	}
	row := c.ring.openRow(abs)
	if c.fault.Stalled(abs) {
		// The slot counter still advances during a stall: broadcast time
		// is locked to the clock, a stalled server simply wastes the slot.
		c.stalledSlots.Add(1)
		for ch := range row {
			row[ch].word.Store(skipCell)
		}
	} else {
		enc, slotTerm := c.ring.enc, slotWord(uint32(abs))
		for ch := range row {
			row[ch].word.Store(c.faulted(ch, abs, enc.word(ch, slotTerm, prog.At(ch, col))))
		}
	}
	c.ring.endSlot(abs)
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
