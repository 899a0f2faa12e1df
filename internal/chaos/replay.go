package chaos

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"tcsa/internal/core"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// ClientMode selects how a replayed client locates its page.
type ClientMode int

const (
	// ScheduleAware clients know the broadcast program (e.g. from a
	// published schedule segment) and listen for their page's next
	// appearance on any channel: one Walk each, moving on to the next
	// appearance whenever Plan.Charge names a fault.
	ScheduleAware ClientMode = iota
	// Scanning clients know nothing: they sweep the channels, listening to
	// each for one full cycle of heard frames before moving on, so any
	// broadcast page is found within channels+1 cycles. (Per-slot hopping
	// can alias with the cycle length and orbit past a page forever; the
	// sweep cannot.)
	Scanning
)

// ReplayConfig parameterises Replay.
type ReplayConfig struct {
	// Mode is the client strategy; default ScheduleAware.
	Mode ClientMode
	// AbandonAfter makes a client give up once its wait reaches
	// AbandonAfter * t_i slots and leave for the on-demand channel
	// (counted, traced as sim.EventAbandon, excluded from wait statistics).
	// A client whose page airs exactly at that instant abandons. 0 means
	// clients never abandon.
	AbandonAfter float64
	// Plan is the air's fault plan, sized for the replayed program; nil
	// is the fault-free plan. Every client reads it from its own
	// arrival's cycle, as RunParallel's walks do, and gives up at its
	// MaxCycles cycles after that cycle (SweepCycles for a Scanning
	// client), Unserved.
	Plan *Plan
	// Trace, when non-nil, receives one sim.Event per client arrival,
	// (re)tune, service and abandonment in time order — e.g. a
	// *sim.RingTracer's Record method.
	Trace func(sim.Event)
}

// Outcome extends sim.Metrics with the replay's per-client counts.
// Served + Abandoned + Unserved == Requests.
type Outcome struct {
	sim.Metrics
	// Served is the number of requests satisfied from the air.
	Served int
	// Abandoned is the number of clients that gave up waiting.
	Abandoned int
	// Unserved is the number of clients still waiting at their bound.
	Unserved int
	// SlotsSimulated is one past the last absolute slot any client
	// listened to: its serving slot, the slot in progress when it
	// abandoned, or the last slot before its give-up bound.
	SlotsSimulated int
}

// SweepCycles is a Scanning client's give-up bound in cycles under cfg on
// a program with the given channel count: MaxCycles, or the channels+1
// cycles one full sweep takes if that is longer. A burst plan whose
// Config.Horizon is SweepCycles times the cycle length covers every slot
// a Scanning client can hear.
func SweepCycles(cfg Config, channels int) int {
	return max(cfg.maxCycles(), channels+1)
}

// Replay drives one client per request through the program's air under
// cfg.Plan. A ScheduleAware client is a Walk from its arrival; a Scanning
// client is a slot-by-slot sweep from the first slot boundary at or after
// its arrival that hears only the frames the plan does not lose. Either
// is cut off at Arrival + AbandonAfter·t_i. Outcomes fold in the order
// the clients finish: served clients by (instant, channel, request
// index), the others by (instant, request index).
func Replay(prog *core.Program, reqs []workload.Request, cfg ReplayConfig) (*Outcome, error) {
	if prog == nil {
		return nil, errors.New("chaos: nil program")
	}
	if cfg.Mode != ScheduleAware && cfg.Mode != Scanning {
		return nil, fmt.Errorf("chaos: unknown client mode %d", cfg.Mode)
	}
	plan := cfg.Plan
	if plan == nil {
		var err error
		if plan, err = NewPlan(Config{}, prog.Channels(), prog.Length()); err != nil {
			return nil, err
		}
	} else if plan.channels != prog.Channels() || plan.length != prog.Length() {
		return nil, fmt.Errorf("chaos: plan for %d channels x %d slots replayed on %d x %d",
			plan.channels, plan.length, prog.Channels(), prog.Length())
	}
	gs := prog.GroupSet()
	rp := replayer{prog: prog, gs: gs, a: core.Analyze(prog), plan: plan, cfg: cfg}
	client := rp.walk
	if cfg.Mode == Scanning {
		client = rp.sweep
	}
	out := &Outcome{}
	for i, r := range reqs {
		if err := sim.CheckRequest(&r, int64(i), gs.Pages()); err != nil {
			return nil, err
		}
		out.SlotsSimulated = max(out.SlotsSimulated, client(i, r))
	}

	slices.SortStableFunc(rp.steps, func(x, y step) int {
		if c := cmp.Compare(x.Time, y.Time); c != 0 {
			return c
		}
		if c := cmp.Compare(x.key, y.key); c != 0 {
			return c
		}
		return cmp.Compare(x.Client, y.Client)
	})
	waits := make([]float64, 0, len(reqs))
	delays := make([]float64, 0, len(reqs))
	misses := 0
	for _, st := range rp.steps {
		if cfg.Trace != nil {
			cfg.Trace(st.Event)
		}
		r := reqs[st.Client]
		switch st.Kind {
		case sim.EventServe:
			wait := st.Time - r.Arrival
			delay := max(0, wait-float64(gs.TimeOf(r.Page)))
			if delay > 0 {
				misses++
			}
			waits = append(waits, wait)
			delays = append(delays, delay)
		case sim.EventAbandon:
			out.Abandoned++
		case sim.EventArrive, sim.EventTune:
		}
	}
	out.Served = len(waits)
	out.Unserved = len(reqs) - out.Served - out.Abandoned
	out.Requests = len(reqs)
	out.AvgWait = stats.Mean(waits)
	out.AvgDelay = stats.Mean(delays)
	out.Wait = stats.Summarize(waits)
	out.Delay = stats.Summarize(delays)
	if out.Served > 0 {
		out.MissRatio = float64(misses) / float64(out.Served)
	}
	return out, nil
}

// step is one client event with its place among events of the same
// instant: a client's arrival, its first tune and its abandonment (key -1)
// precede every slot's deliveries, which go in channel order (key = the
// channel whose frame the client heard).
type step struct {
	sim.Event
	key int
}

// replayer accumulates the clients' steps under one plan.
type replayer struct {
	prog   *core.Program
	gs     *core.GroupSet
	a      *core.Analysis
	plan   *Plan
	cfg    ReplayConfig
	ledger Ledger // the walks' scratch ledger; Outcome counts clients itself
	steps  []step
}

// emit records a step; arrivals and tunes only when a Trace hook reads
// them.
func (rp *replayer) emit(kind sim.EventKind, at float64, i int, page core.PageID, ch, key int) {
	if rp.cfg.Trace != nil || kind == sim.EventServe || kind == sim.EventAbandon {
		rp.steps = append(rp.steps, step{sim.Event{Kind: kind, Time: at, Client: i, Page: page, Channel: ch}, key})
	}
}

// start is the part of every client's replay before it listens: its cycle
// base and offset, its abandonment deadline (+Inf for a patient client)
// and its arrival step.
func (rp *replayer) start(i int, r workload.Request) (base, u, deadline float64) {
	u = core.CycleMod(r.Arrival, float64(rp.plan.length))
	deadline = math.Inf(1)
	if rp.cfg.AbandonAfter > 0 {
		deadline = r.Arrival + rp.cfg.AbandonAfter*float64(rp.gs.TimeOf(r.Page))
	}
	rp.emit(sim.EventArrive, r.Arrival, i, r.Page, -1, -1)
	return r.Arrival - u, u, deadline
}

// abandon ends client i at its deadline and returns its slot span.
func (rp *replayer) abandon(i int, r workload.Request, deadline float64, ch int) int {
	rp.emit(sim.EventAbandon, deadline, i, r.Page, ch, -1)
	return int(deadline) + 1
}

// giveUp ends a client that never heard its page: it abandons if its
// deadline falls before its bound of cycles cycles after its arrival's
// cycle, and is otherwise Unserved. It returns the client's slot span.
func (rp *replayer) giveUp(i int, r workload.Request, base, deadline float64, cycles, ch int) int {
	if bound := base + float64(cycles*rp.plan.length); deadline >= bound {
		return int(bound)
	}
	return rp.abandon(i, r, deadline, ch)
}

// walk replays ScheduleAware client i and returns its slot span.
func (rp *replayer) walk(i int, r workload.Request) int {
	p, a := rp.plan, rp.a
	base, u, deadline := rp.start(i, r)
	var w Walk
	pending := w.Start(p, a, nil, r.Page, u, &rp.ledger)
	ch := -1
	if pending {
		ch = int(w.Ch)
	}
	rp.emit(sim.EventTune, r.Arrival, i, r.Page, ch, -1)
	for pending {
		at := base + float64(w.Next) + p.JitterAt(int(w.Next))
		if at >= deadline {
			return rp.abandon(i, r, deadline, ch)
		}
		reason := p.Charge(&w, int64(i))
		if reason == SkipNone {
			rp.emit(sim.EventServe, at, i, r.Page, ch, ch)
			return int(base) + int(w.Next) + 1
		}
		// The client learns of the fault from the slot after it and
		// retunes to the next appearance's channel there.
		lost := w.Next
		if pending = w.Skip(p, a, reason, r.Page, &rp.ledger); pending && int(w.Ch) != ch {
			rp.emit(sim.EventTune, base+float64(lost+1), i, r.Page, int(w.Ch), ch)
			ch = int(w.Ch)
		}
	}
	return rp.giveUp(i, r, base, deadline, p.MaxCycles(), ch)
}

// sweep replays Scanning client i and returns its slot span.
func (rp *replayer) sweep(i int, r workload.Request) int {
	p, prog := rp.plan, rp.prog
	base, u, deadline := rp.start(i, r)
	ch := prog.WrapChannel(int(r.Page))
	rp.emit(sim.EventTune, r.Arrival, i, r.Page, ch, -1)
	cycles := SweepCycles(p.cfg, p.channels)
	heard, attempts := 0, 0
	for s := int(math.Ceil(u)); s < cycles*p.length; s++ {
		at := base + float64(s) + p.JitterAt(s)
		if at >= deadline {
			return rp.abandon(i, r, deadline, ch)
		}
		if p.Lost(ch, s) {
			continue
		}
		if prog.AtAbs(ch, s) == r.Page {
			if !p.ChurnAway(int64(i), attempts) {
				rp.emit(sim.EventServe, at, i, r.Page, ch, ch)
				return int(base) + s + 1
			}
			attempts++
			continue
		}
		heard++
		if next := prog.WrapChannel(int(r.Page) + heard/p.length); next != ch {
			rp.emit(sim.EventTune, at, i, r.Page, next, ch)
			ch = next
		}
	}
	return rp.giveUp(i, r, base, deadline, cycles, ch)
}
