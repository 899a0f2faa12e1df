package sim

import (
	"fmt"
	"strings"

	"tcsa/internal/core"
)

// EventKind classifies a simulation trace event.
type EventKind int

const (
	// EventArrive: a client tuned into the system.
	EventArrive EventKind = iota
	// EventTune: a client (re)tuned to a channel.
	EventTune
	// EventServe: a client received its page.
	EventServe
	// EventAbandon: a client gave up and left for the on-demand channel.
	EventAbandon
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventArrive:
		return "arrive"
	case EventTune:
		return "tune"
	case EventServe:
		return "serve"
	case EventAbandon:
		return "abandon"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one traced occurrence. Channel is -1 where not applicable.
type Event struct {
	Kind    EventKind
	Time    float64
	Client  int // request index
	Page    core.PageID
	Channel int
}

// String renders one event line.
func (e Event) String() string {
	return fmt.Sprintf("t=%8.2f client=%-5d %-7s page=%-4d ch=%d",
		e.Time, e.Client, e.Kind, e.Page, e.Channel)
}

// RingTracer keeps the most recent events in a bounded buffer; use it as
// chaos.ReplayConfig.Trace. The zero value is unusable; construct with
// NewRingTracer.
type RingTracer struct {
	buf     []Event
	next    int
	total   int
	wrapped bool
}

// NewRingTracer allocates a tracer holding the last `capacity` events.
func NewRingTracer(capacity int) (*RingTracer, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("sim: tracer capacity %d", capacity)
	}
	return &RingTracer{buf: make([]Event, 0, capacity)}, nil
}

// Record appends an event, evicting the oldest when full.
func (r *RingTracer) Record(e Event) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
	r.wrapped = true
}

// Total returns how many events were recorded over the tracer's lifetime
// (including evicted ones).
func (r *RingTracer) Total() int { return r.total }

// Events returns the retained events oldest-first.
func (r *RingTracer) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// String renders the retained events one per line.
func (r *RingTracer) String() string {
	var b strings.Builder
	if r.wrapped {
		fmt.Fprintf(&b, "... %d earlier events evicted ...\n", r.total-len(r.buf))
	}
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
