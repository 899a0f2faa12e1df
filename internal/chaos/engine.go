package chaos

import (
	"errors"
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Ledger is the per-client deadline-miss bookkeeping the fault plan
// drives: how many scheduled deliveries each fault class ate, how many
// extra appearances clients waited through, and how many gave up.
type Ledger struct {
	// LostDeliveries counts appearances of a requested page lost to
	// i.i.d. or burst frame loss while the client was listening.
	LostDeliveries int64
	// CorruptSkips counts appearances that arrived undecodable.
	CorruptSkips int64
	// StallSkips counts appearances swallowed by server stall windows.
	StallSkips int64
	// ChurnSkips counts appearances missed because the client was
	// mid-disconnect/rejoin.
	ChurnSkips int64
	// Retries is the total number of extra appearances waited for
	// (the sum of the four skip classes).
	Retries int64
	// Unserved counts requests that hit the MaxCycles give-up bound.
	Unserved int64
}

// Replan reports the graceful-degradation path: the incremental replan
// engine resizing the live schedule down to the effective channel capacity
// the plan's loss rate leaves usable.
type Replan struct {
	// EffectiveChannels is the degraded capacity fed back into PAMAD.
	EffectiveChannels int
	// Frequencies is the degraded per-group broadcast frequency vector.
	Frequencies delaymodel.Frequencies
	// MajorCycle is the degraded schedule's cycle length in slots.
	MajorCycle int
	// AnalyticDelay is the delay model's D' for the degraded schedule.
	AnalyticDelay float64
	// DeltaKind is how the replan engine classified the resize (a channel
	// change is always "rebuild"; kept observable so a future fast path
	// shows up in reports).
	DeltaKind string
	// ClearedCells/PlacedCells is the engine's cell accounting for the
	// resize: transmissions vacated from the nominal schedule and written
	// into the degraded one.
	ClearedCells int
	PlacedCells  int
}

// Result is a chaos measurement: the standard metrics (Wait doubles as
// the staleness/age-of-information profile — Delay.Max is the worst
// deadline overshoot), the fault ledger, and the replay fingerprint.
type Result struct {
	sim.Metrics
	Ledger
	// Misses is the exact deadline-miss count (MissRatio's numerator).
	Misses int64
	// EffectiveLoss is the plan's observed frame-loss rate.
	EffectiveLoss float64
	// TraceDigest fingerprints every per-request outcome (page, wait bits,
	// attempt count) in shard order: identical seed + config + stream give
	// an identical digest at any worker count.
	TraceDigest uint64
	// Replan is the graceful-degradation schedule, when Config.Replan is
	// set and the plan degrades capacity below nominal.
	Replan *Replan
}

// Add folds another ledger into l.
func (l *Ledger) Add(o *Ledger) {
	l.LostDeliveries += o.LostDeliveries
	l.CorruptSkips += o.CorruptSkips
	l.StallSkips += o.StallSkips
	l.ChurnSkips += o.ChurnSkips
	l.Retries += o.Retries
	l.Unserved += o.Unserved
}

// RunParallel walks every request through the fault plan on the
// sim.FoldShards kernel, with per-shard ledgers summed afterwards, so the
// Result (metrics, ledger and trace digest alike) is bit-for-bit identical
// at any worker count. Every plan walks, so MaxCycles bounds every wait;
// an inactive cfg at the default MaxCycles loses no delivery and
// reproduces sim.MeasureParallel's Metrics bit for bit.
func RunParallel(a *core.Analysis, stream workload.Stream, cfg Config, workers int) (*Result, error) {
	if a == nil {
		return nil, errors.New("chaos: nil analysis")
	}
	if stream == nil {
		return nil, errors.New("chaos: nil stream")
	}
	prog := a.Program()
	plan, err := NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		return nil, err
	}
	ledgers := make([]Ledger, stream.Shards())
	span := sim.CycleSpan(float64(prog.Length()), 1)
	fold, err := sim.FoldShards(stream, workers, span, span, faultWalk(plan, a, stream.Sorted(), ledgers))
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: fold.Metrics(), Misses: fold.Hits, TraceDigest: fold.Digest}
	for k := range ledgers {
		res.Ledger.Add(&ledgers[k])
	}
	if err := Finish(res, plan, prog); err != nil {
		return nil, err
	}
	return res, nil
}

// faultWalk is the kernel visit: each request walks its page's
// appearances through the plan's faults until one is delivered or
// MaxCycles cycles have passed, ledgering every skipped appearance in the
// shard's ledger.
func faultWalk(plan *Plan, a *core.Analysis, sorted bool, ledgers []Ledger) func() sim.Visit {
	gs := a.Program().GroupSet()
	pages := gs.Pages()
	times := sim.ExpectedTimes(gs)
	L := float64(plan.length)
	return func() sim.Visit {
		cursors := sim.NewCursors(sorted, pages)
		var r workload.Request
		return func(shard int, cur workload.Cursor, p *sim.Partial) error {
			ledger := &ledgers[shard]
			for local := 0; cur.Next(&r); local++ {
				req := int64(shard)*workload.ShardSize + int64(local)
				if err := sim.CheckRequest(&r, req, pages); err != nil {
					return err
				}
				var w Walk
				// The program is cyclic, so arrivals beyond the first
				// cycle (e.g. Poisson streams) fold back into it.
				pending := w.Start(plan, a, cursors, r.Page, core.CycleMod(r.Arrival, L), ledger)
				for pending {
					reason := plan.Charge(&w, req)
					if reason == SkipNone {
						break
					}
					pending = w.Skip(plan, a, reason, r.Page, ledger)
				}
				p.AddWait(r.Page, w.Wait(plan, a, r.Page), times[r.Page], uint64(w.Attempts))
			}
			return nil
		}
	}
}

// Finish attaches to res the plan-level quantities (effective loss,
// degradation replan) that do not depend on the measured stream. The
// degradation path runs through the incremental replan engine — the same
// machinery a live broadcaster uses to resize its schedule — so the report
// additionally carries the engine's delta accounting; the derived
// frequencies, cycle and delay are identical to a from-scratch pamad.Build
// at the degraded budget (the engine's differential gate pins that
// equivalence).
func Finish(res *Result, plan *Plan, prog *core.Program) error {
	res.EffectiveLoss = plan.EffectiveLossRate()
	if !plan.cfg.Replan {
		return nil
	}
	eff := plan.EffectiveChannels()
	if eff >= prog.Channels() {
		return nil
	}
	eng, err := replan.New(prog.GroupSet(), prog.Channels())
	if err != nil {
		return fmt.Errorf("chaos: degradation replan at %d channels: %w", eff, err)
	}
	delta, err := eng.SetChannels(eff)
	if err != nil {
		return fmt.Errorf("chaos: degradation replan at %d channels: %w", eff, err)
	}
	res.Replan = &Replan{
		EffectiveChannels: eff,
		Frequencies:       eng.Frequencies(),
		MajorCycle:        eng.Program().Length(),
		AnalyticDelay:     eng.Delay(),
		DeltaKind:         delta.Kind.String(),
		ClearedCells:      delta.ClearedCells,
		PlacedCells:       delta.PlacedCells,
	}
	return nil
}
