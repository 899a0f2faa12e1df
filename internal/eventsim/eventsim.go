// Package eventsim is a small deterministic discrete-event simulation
// engine: a virtual clock and a time-ordered event queue with FIFO
// tie-breaking. The broadcast-system and on-demand-channel simulators are
// built on it.
//
// Time is a float64 in broadcast slots, matching the rest of the module.
// Events scheduled for the same instant run in scheduling order, so a
// simulation driven by seeded randomness is reproducible bit-for-bit.
package eventsim

import (
	"container/heap"
	"errors"
	"fmt"
)

// ErrPastEvent reports an attempt to schedule an event before the current
// simulation time.
var ErrPastEvent = errors.New("eventsim: event scheduled in the past")

// Simulator owns the virtual clock and the pending-event queue. The zero
// value is a ready simulator at time 0.
type Simulator struct {
	now   float64
	seq   uint64
	queue eventQueue
}

type event struct {
	at  float64
	seq uint64
	fn  func()
}

// Now returns the current simulation time in slots.
func (s *Simulator) Now() float64 { return s.now }

// At schedules fn to run at absolute time t (>= Now).
func (s *Simulator) At(t float64, fn func()) error {
	if t < s.now {
		return fmt.Errorf("%w: %f < now %f", ErrPastEvent, t, s.now)
	}
	if fn == nil {
		return errors.New("eventsim: nil event function")
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
	return nil
}

// After schedules fn to run d slots from now (d >= 0).
func (s *Simulator) After(d float64, fn func()) error {
	return s.At(s.now+d, fn)
}

// PeriodicVar schedules fn at start and then after interval(k) slots
// following its k-th firing (k counts from 0), for as long as fn returns
// true. A constant interval gives a fixed-period train; a varying one is
// the substrate for slot jitter, where consecutive slot boundaries are
// not exactly one slot apart. interval must return positive values; a
// non-positive interval stops the train (fn is not called again), so a
// buggy jitter source degrades to silence instead of looping at a frozen
// clock.
func (s *Simulator) PeriodicVar(start float64, interval func(k int) float64, fn func(t float64) bool) error {
	if interval == nil {
		return errors.New("eventsim: nil interval function")
	}
	if fn == nil {
		return errors.New("eventsim: nil event function")
	}
	k := 0
	var tick func()
	tick = func() {
		if !fn(s.now) {
			return
		}
		d := interval(k)
		k++
		if d <= 0 {
			return
		}
		_ = s.After(d, tick)
	}
	return s.At(start, tick)
}

// Step executes the earliest pending event, advancing the clock to its
// time. It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue drains, returning how many ran.
func (s *Simulator) Run() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// RunUntil executes events with time <= deadline, then advances the clock
// to exactly deadline. It returns how many events ran.
func (s *Simulator) RunUntil(deadline float64) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
		n++
	}
	if deadline > s.now {
		s.now = deadline
	}
	return n
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
