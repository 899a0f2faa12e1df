package sim

import (
	"errors"
	"fmt"

	"tcsa/internal/airwave"
	"tcsa/internal/core"
	"tcsa/internal/eventsim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// ClientMode selects how event-driven clients locate their page.
type ClientMode int

const (
	// ScheduleAware clients know the broadcast program (e.g. from a
	// published schedule segment) and tune directly to the channel of their
	// page's next appearance, re-planning if a frame is lost.
	ScheduleAware ClientMode = iota
	// Scanning clients know nothing: they sweep the channels, listening to
	// each for one full cycle before moving on, so any broadcast page is
	// found within channels+1 cycles. (Per-slot hopping can alias with the
	// cycle length and orbit past a page forever; the sweep cannot.)
	Scanning
)

// DefaultMaxCycles is the give-up bound when the air has no fault source
// naming one: far beyond any plausible wait on a working channel, small
// enough that a fully stalled channel still terminates.
const DefaultMaxCycles = 64

// Fault is the event-driven air's fault source: the medium's per-(channel,
// slot) loss and slot jitter, plus the number of broadcast cycles a client
// waits before giving up. *chaos.Plan implements it.
type Fault interface {
	airwave.Fault
	MaxCycles() int
}

// Config parameterises the event-driven simulation.
type Config struct {
	// Mode is the client strategy; default ScheduleAware.
	Mode ClientMode
	// AbandonAfter makes a client give up once its wait exceeds
	// AbandonAfter * t_i slots and leave for the on-demand channel
	// (counted, reported via OnAbandon, excluded from wait statistics).
	// 0 means clients never abandon.
	AbandonAfter float64
	// Fault, when non-nil, injects frame loss and slot jitter into the
	// air, and clients still waiting Fault.MaxCycles() cycles after the
	// last arrival's cycle are Unserved. nil is fault-free air bounded at
	// DefaultMaxCycles. Limits with a *chaos.Plan: the air asks only Lost
	// and JitterAt, so the plan's client-side Churn does not apply; its
	// burst tape covers MaxCycles+2 cycles by default, so slots past that
	// (arrivals beyond the second cycle, or a Scanning sweep longer than
	// MaxCycles+1 cycles) see no burst loss; and because the bound counts
	// from the last arrival, earlier arrivals may wait past MaxCycles,
	// which the walk never allows.
	Fault Fault
	// OnAbandon, when non-nil, is invoked at the simulated instant a client
	// abandons, with the request and that instant. Hook for coupling to an
	// on-demand server model.
	OnAbandon func(req workload.Request, at float64)
	// Trace, when non-nil, receives one Event per client arrival, (re)tune,
	// service and abandonment — e.g. a *RingTracer's Record method.
	Trace func(Event)
}

// Outcome extends Metrics with event-simulation-specific counts.
// Served + Abandoned + Unserved == Requests.
type Outcome struct {
	Metrics
	// Served is the number of requests satisfied from the air.
	Served int
	// Abandoned is the number of clients that gave up waiting.
	Abandoned int
	// Unserved is the number of clients still waiting at the slot bound.
	Unserved int
	// SlotsSimulated is the number of broadcast slots replayed.
	SlotsSimulated int
}

// client is one listening session.
type client struct {
	idx     int // request index, for tracing
	req     workload.Request
	want    core.PageID
	expect  int // expected time t_i
	arrival float64
	tuner   *airwave.Tuner
	heard   int // frames listened to (Scanning sweep progress)
	done    bool
}

// Run replays the program on the airwave substrate and drives one client
// per request through it. Requests arrive at their Arrival instant within
// the first broadcast cycle. The simulation ends when every client is
// served or abandoned, or at the slot bound: MaxCycles cycles after the
// last arrival's cycle, or channels+1 for a Scanning client's sweep if
// that is longer.
func Run(prog *core.Program, reqs []workload.Request, cfg Config) (*Outcome, error) {
	if prog == nil {
		return nil, errors.New("sim: nil program")
	}
	if cfg.Mode != ScheduleAware && cfg.Mode != Scanning {
		return nil, fmt.Errorf("sim: unknown client mode %d", cfg.Mode)
	}
	gs := prog.GroupSet()
	a := core.Analyze(prog)

	var simulator eventsim.Simulator
	medium, err := airwave.New(&simulator, prog, cfg.Fault)
	if err != nil {
		return nil, err
	}

	out := &Outcome{}
	waits := make([]float64, 0, len(reqs))
	delays := make([]float64, 0, len(reqs))
	misses := 0
	remaining := len(reqs)

	trace := func(kind EventKind, c *client, at float64, channel int) {
		if cfg.Trace != nil {
			cfg.Trace(Event{Kind: kind, Time: at, Client: c.idx, Page: c.want, Channel: channel})
		}
	}
	serve := func(c *client, at float64) {
		if c.done {
			return
		}
		trace(EventServe, c, at, c.tuner.Channel())
		c.done = true
		c.tuner.Detach()
		remaining--
		wait := at - c.arrival
		delay := wait - float64(c.expect)
		if delay < 0 {
			delay = 0
		} else if delay > 0 {
			misses++
		}
		waits = append(waits, wait)
		delays = append(delays, delay)
		out.Served++
	}
	abandon := func(c *client, at float64) {
		if c.done {
			return
		}
		trace(EventAbandon, c, at, c.tuner.Channel())
		c.done = true
		c.tuner.Detach()
		remaining--
		out.Abandoned++
		if cfg.OnAbandon != nil {
			cfg.OnAbandon(c.req, at)
		}
	}

	clients := make([]*client, 0, len(reqs))
	lastArrival := 0.0
	for i, r := range reqs {
		if r.Page < 0 || int(r.Page) >= gs.Pages() {
			return nil, fmt.Errorf("%w: request %d page %d", core.ErrPageRange, i, r.Page)
		}
		if r.Arrival < 0 {
			return nil, fmt.Errorf("%w: request %d arrival %f", core.ErrSlotRange, i, r.Arrival)
		}
		if r.Arrival > lastArrival {
			lastArrival = r.Arrival
		}
		c := &client{idx: i, req: r, want: r.Page, expect: gs.TimeOf(r.Page), arrival: r.Arrival}
		clients = append(clients, c)
		tuner, err := medium.NewTuner(func(f airwave.Frame) {
			if c.done {
				return
			}
			if f.Page == c.want {
				serve(c, simulator.Now())
				return
			}
			switch cfg.Mode {
			case Scanning:
				// Sweep: stay one full cycle per channel, then advance.
				c.heard++
				next := prog.WrapChannel(int(c.want) + c.heard/prog.Length())
				if next != f.Channel {
					trace(EventTune, c, simulator.Now(), next)
				}
				_ = c.tuner.TuneTo(next)
			case ScheduleAware:
				// The expected frame did not carry the page (loss); re-plan
				// from the next slot boundary.
				before := c.tuner.Channel()
				retuneToNext(medium, a, c, simulator.Now()+1)
				if after := c.tuner.Channel(); after != before {
					trace(EventTune, c, simulator.Now(), after)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		c.tuner = tuner
		// Client arrival: tune in.
		if err := simulator.At(r.Arrival, func() {
			trace(EventArrive, c, simulator.Now(), -1)
			switch cfg.Mode {
			case Scanning:
				_ = c.tuner.TuneTo(prog.WrapChannel(int(c.want)))
			case ScheduleAware:
				retuneToNext(medium, a, c, simulator.Now())
			}
			trace(EventTune, c, simulator.Now(), c.tuner.Channel())
		}); err != nil {
			return nil, err
		}
		if cfg.AbandonAfter > 0 {
			deadline := r.Arrival + cfg.AbandonAfter*float64(c.expect)
			if err := simulator.At(deadline, func() { abandon(c, simulator.Now()) }); err != nil {
				return nil, err
			}
		}
	}

	cycles := DefaultMaxCycles
	if cfg.Fault != nil {
		cycles = cfg.Fault.MaxCycles()
	}
	if cfg.Mode == Scanning && cycles < prog.Channels()+1 {
		cycles = prog.Channels() + 1
	}
	maxSlots := (int(lastArrival)/prog.Length() + cycles) * prog.Length()
	if err := medium.Start(); err != nil {
		return nil, err
	}
	for slot := 0; slot < maxSlots && remaining > 0; slot++ {
		simulator.RunUntil(float64(slot) + 0.5)
	}
	// Clients still waiting at the bound gave up there, as the chaos walk's
	// do: Unserved, with any later abandonment timer left unfired.
	out.SlotsSimulated = medium.Slot()
	for _, c := range clients {
		if !c.done {
			out.Unserved++
		}
	}

	out.Requests = len(reqs)
	out.AvgWait = stats.Mean(waits)
	out.AvgDelay = stats.Mean(delays)
	out.Wait = stats.Summarize(waits)
	out.Delay = stats.Summarize(delays)
	if served := len(waits); served > 0 {
		out.MissRatio = float64(misses) / float64(served)
	}
	return out, nil
}

// retuneToNext points the client's tuner at the channel carrying its page's
// next appearance at or after time from.
func retuneToNext(medium *airwave.Medium, a *core.Analysis, c *client, from float64) {
	prog := medium.Program()
	wait := a.NextAfter(c.want, mod(from, float64(prog.Length())))
	col := prog.Column(int(mod(from, float64(prog.Length())) + wait + 0.5))
	for ch := 0; ch < prog.Channels(); ch++ {
		if prog.At(ch, col) == c.want {
			_ = c.tuner.TuneTo(ch)
			return
		}
	}
	// Page never broadcast: stay detached; the abandonment timer (if any)
	// will fire, otherwise the client is Unserved at the slot bound.
	c.tuner.Detach()
}

// mod is a float modulus with non-negative result for positive m.
func mod(x, m float64) float64 {
	r := x - float64(int(x/m))*m
	if r < 0 {
		r += m
	}
	return r
}
