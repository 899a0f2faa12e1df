// Package airwave models the broadcast medium itself: a set of slotted
// wireless channels driven by a cyclic broadcast program, with tuners that
// listen to one channel at a time and an optional fault source.
//
// It is the physical substrate under the client simulator: the scheduling
// packages decide *what* occupies each (channel, slot) cell; airwave
// replays those cells over virtual time on an eventsim.Simulator and
// delivers frames to whoever is tuned in. Frames are delivered at the slot
// start instant, matching the waiting-time convention of core.Analysis.
package airwave

import (
	"errors"
	"fmt"
	"math"

	"tcsa/internal/core"
	"tcsa/internal/eventsim"
)

// Frame is one slot's transmission on one channel. Page is core.None for an
// idle slot.
type Frame struct {
	Channel int
	Slot    int // absolute slot index since Start
	Page    core.PageID
}

// Fault is the medium's fault source, asked once per (channel, slot):
// whether the frame on channel ch at absolute slot abs is lost, and how
// many slots late slot abs airs. *chaos.Plan implements it.
type Fault interface {
	Lost(ch, abs int) bool
	// JitterAt returns slot abs's transmission delay in [0, 0.5] slots,
	// so consecutive slots never reorder.
	JitterAt(abs int) float64
}

// Medium is the on-air broadcast system: it replays a program cyclically,
// one column per slot, delivering frames to tuned receivers.
type Medium struct {
	sim     *eventsim.Simulator
	prog    *core.Program
	fault   Fault
	tuners  []*Tuner // insertion order, for deterministic delivery
	tuned   []int    // per-slot snapshot of tuner channels (scratch)
	slot    int
	started bool
	stopped bool
}

// New creates a Medium over prog driven by sim. A nil fault is a
// fault-free air with an exact fixed-period clock.
func New(sim *eventsim.Simulator, prog *core.Program, fault Fault) (*Medium, error) {
	if sim == nil {
		return nil, errors.New("airwave: nil simulator")
	}
	if prog == nil {
		return nil, errors.New("airwave: nil program")
	}
	return &Medium{sim: sim, prog: prog, fault: fault}, nil
}

// Program returns the program being broadcast.
func (m *Medium) Program() *core.Program { return m.prog }

// Slot returns the absolute index of the next slot to transmit.
func (m *Medium) Slot() int { return m.slot }

// PageAt returns the page scheduled on channel ch at absolute slot abs
// (the program repeats cyclically).
func (m *Medium) PageAt(ch, abs int) core.PageID {
	if ch < 0 || ch >= m.prog.Channels() || abs < 0 {
		return core.None
	}
	return m.prog.AtAbs(ch, abs)
}

// Start begins transmitting at the next integer slot boundary (time
// ceil(now)). It may be called once.
func (m *Medium) Start() error {
	if m.started {
		return errors.New("airwave: already started")
	}
	m.started = true
	first := float64(int(m.sim.Now()))
	if first < m.sim.Now() {
		first++
	}
	tick := func(float64) bool {
		if m.stopped {
			return false
		}
		m.transmit()
		return true
	}
	// Slot k is transmitted at first + k + offset(k), so the interval
	// after tick k bridges to the next jittered boundary. Without jitter
	// the offset is a constant 0 and every interval is exactly 1.
	// clampJ keeps a misbehaving fault source from reordering slots.
	offset := func(k int) float64 {
		if m.fault == nil {
			return 0
		}
		return clampJ(m.fault.JitterAt(k))
	}
	return m.sim.PeriodicVar(first+offset(0), func(k int) float64 {
		return 1 + offset(k+1) - offset(k)
	}, tick)
}

// clampJ bounds a jitter offset to [0, 0.5] — the contract of
// Fault.JitterAt — so inter-slot intervals stay positive.
func clampJ(j float64) float64 {
	if j < 0 || math.IsNaN(j) {
		return 0
	}
	if j > 0.5 {
		return 0.5
	}
	return j
}

// Stop ends transmission after the current slot.
func (m *Medium) Stop() { m.stopped = true }

// transmit delivers the current column on every channel whose frame is
// not lost; every tuner on a channel shares its frame's fate. Tuner
// channels are snapshotted at slot start: a single-frequency receiver that
// retunes while handling a frame hears the new channel only from the next
// slot on.
func (m *Medium) transmit() {
	col := m.prog.Column(m.slot)
	if cap(m.tuned) < len(m.tuners) {
		m.tuned = make([]int, len(m.tuners))
	}
	m.tuned = m.tuned[:len(m.tuners)]
	for i, t := range m.tuners {
		m.tuned[i] = t.channel
	}
	for ch := 0; ch < m.prog.Channels(); ch++ {
		if m.fault != nil && m.fault.Lost(ch, m.slot) {
			continue
		}
		f := Frame{Channel: ch, Slot: m.slot, Page: m.prog.At(ch, col)}
		for i, t := range m.tuners {
			if m.tuned[i] == ch {
				t.fn(f)
			}
		}
	}
	m.slot++
}

// Tuner is a single-frequency receiver: it hears exactly one channel at a
// time (or none when detached, channel = -1).
type Tuner struct {
	m       *Medium
	channel int
	fn      func(Frame)
}

// NewTuner registers a detached tuner whose callback runs for every frame
// on its tuned channel.
func (m *Medium) NewTuner(fn func(Frame)) (*Tuner, error) {
	if fn == nil {
		return nil, errors.New("airwave: nil tuner callback")
	}
	t := &Tuner{m: m, channel: -1, fn: fn}
	m.tuners = append(m.tuners, t)
	return t, nil
}

// TuneTo points the tuner at channel ch; frames transmitted from the next
// slot onward are delivered. Tuning takes effect immediately (zero switch
// latency, as the paper assumes).
func (t *Tuner) TuneTo(ch int) error {
	if ch < 0 || ch >= t.m.prog.Channels() {
		return fmt.Errorf("%w: channel %d of %d", core.ErrSlotRange, ch, t.m.prog.Channels())
	}
	t.channel = ch
	return nil
}

// Detach stops reception; the tuner can be re-tuned later.
func (t *Tuner) Detach() { t.channel = -1 }

// Channel returns the tuned channel, or -1 when detached.
func (t *Tuner) Channel() int { return t.channel }
