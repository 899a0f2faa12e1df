// Package loadgen drives large simulated client populations — 100k to
// 1M+ — through the real broadcast runtime: a netcast.Caster publishes
// every slot of the program into the in-process netcast.BroadcastRing,
// and sharded client workers poll their pages' appearance slots out of
// the ring, classify what they observe (received, lost, corrupt,
// stalled, churned away) and account waits, deadline misses and the
// fault ledger.
//
// The package's contract is bit-identity with the measurement engines:
// the aggregated Result reproduces chaos.RunParallel exactly — same
// metrics, same ledger, same trace digest — at any worker count, and
// with faults off at the default MaxCycles it therefore reproduces
// sim.MeasureStream exactly.
// That holds because every client outcome is a pure function of
// (request, plan): the ring's flow control guarantees no client ever
// loses a slot to overwrite (a RingLost poll is a hard error, not a
// statistic), so the transport changes how outcomes are observed, never
// what they are.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Config describes one load-generation scenario over the paper's Figure 4
// instance (workload.Paper*): the group-size shape, the channel count, the
// client population, and the fault plan.
type Config struct {
	// Clients is the simulated client population (one request each).
	Clients int
	// Dist shapes the group-size distribution (paper Figure 3).
	Dist workload.Distribution
	// Channels is the broadcast channel count; 0 = the paper's knee,
	// ceil(MinChannels/5), the operating point the sweep PRs pinned.
	Channels int
	// Seed drives the request stream (page choices and arrivals).
	Seed int64
	// PageChoice selects uniform or Zipf page popularity; Theta is the
	// Zipf exponent.
	PageChoice workload.PageChoice
	Theta      float64
	// Fault is the chaos plan driven through the transport. The zero
	// value is fault-free air.
	Fault chaos.Config
}

// Result is a loadgen measurement: the full chaos.Result (bit-identical
// to running chaos.RunParallel on the same inputs) plus the transport's
// own accounting.
type Result struct {
	chaos.Result
	// Clients echoes the measured population size.
	Clients int
	// Channels and CycleLen describe the broadcast program driven.
	Channels int
	CycleLen int
	// SlotsAired is how many slots the caster published (MaxCycles
	// cycles, always — the air does not stop when clients finish).
	SlotsAired int64
	// FaultStats is the server-side fault accounting from the caster;
	// its classes correspond to the ledger's channel-side skips but count
	// per (channel, slot), not per waiting client.
	FaultStats netcast.FaultStats
}

// Options tunes RunStream independently of scenario construction.
type Options struct {
	// Workers is the number of client workers that drain the ring
	// (0 = GOMAXPROCS). The fold after the air always uses GOMAXPROCS.
	Workers int
	//lint:ignore testonly tests force a tiny ring to keep the flow control under constant pressure
	RingSlots int // 0 = netcast.DefaultRingSlots
}

// Materialize builds the scenario cfg describes: the Figure 4 instance
// under cfg.Dist, its PAMAD program (at the knee channel count when
// cfg.Channels is 0) analysed for appearance lookup, and the request
// stream over it.
func Materialize(cfg Config) (*core.Analysis, workload.Stream, error) {
	if cfg.Clients < 0 {
		return nil, nil, fmt.Errorf("loadgen: negative client count %d", cfg.Clients)
	}
	gs, err := workload.GroupSet(cfg.Dist, workload.PaperGroups, workload.PaperPages, workload.PaperBaseTime, workload.PaperRatio)
	if err != nil {
		return nil, nil, err
	}
	channels := cfg.Channels
	if channels == 0 {
		channels = core.CeilDiv(gs.MinChannels(), 5)
	}
	prog, _, err := pamad.Build(gs, channels)
	if err != nil {
		return nil, nil, err
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count:  cfg.Clients,
		Seed:   cfg.Seed,
		Choice: cfg.PageChoice,
		Theta:  cfg.Theta,
	})
	if err != nil {
		return nil, nil, err
	}
	return core.Analyze(prog), stream, nil
}

// client is the record the calendar queues: one pending request's walk
// plus its global index and page, 48 bytes.
type client struct {
	chaos.Walk
	glob int64 // global request index (shard*ShardSize + local)
	page core.PageID
}

// engine carries the shared state of one RunStream measurement.
type engine struct {
	ring     *netcast.BroadcastRing
	plan     *chaos.Plan
	a        *core.Analysis
	stream   workload.Stream
	times    []float64
	pages    int
	cycleLen int

	waits      []float64
	attempts   []int32
	ledgers    []chaos.Ledger
	watermarks []watermark
	failed     atomic.Bool
}

// watermark is one worker's drain position on a cache line of its own:
// each worker stores its watermark once per drained slot, and the
// broadcaster reads every one while it waits, so watermarks sharing a
// line would make the workers contend for it.
type watermark struct {
	atomic.Int64
	_ [56]byte
}

// RunStream measures stream against the analysed program under the fault
// plan, through the in-process ring transport. Metrics, ledger and trace
// digest are bit-identical to chaos.RunParallel on the same inputs at any
// worker count; with an inactive fault config at the default MaxCycles
// they are therefore bit-identical to sim.MeasureStream.
func RunStream(ctx context.Context, a *core.Analysis, stream workload.Stream, fault chaos.Config, opts Options) (*Result, error) {
	if a == nil {
		return nil, errors.New("loadgen: nil analysis")
	}
	if stream == nil {
		return nil, errors.New("loadgen: nil stream")
	}
	prog := a.Program()
	plan, err := chaos.NewPlan(fault, prog.Channels(), prog.Length())
	if err != nil {
		return nil, err
	}
	res := &Result{
		Clients:  stream.Count(),
		Channels: prog.Channels(),
		CycleLen: prog.Length(),
	}
	count := stream.Count()
	if count == 0 {
		return finish(res, plan, prog)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := stream.Shards()
	if workers > shards {
		workers = shards
	}
	// Worker 0 owns the most clients, so its calendar arena is the largest.
	n := ownedClients(count, 0, workers)
	if _, ok := arenaBound(n, 2*int64(prog.Length())); !ok {
		return nil, fmt.Errorf("loadgen: %d clients on one of %d workers need more calendar chunks than int32 indices address", n, workers)
	}
	ring, err := netcast.NewBroadcastRing(prog.Channels(), opts.RingSlots)
	if err != nil {
		return nil, err
	}
	// An inactive plan injects nothing, so the caster gets no injector and
	// its cast loop no fault predicates; the plan still drives every walk.
	var inject netcast.FaultInjector
	if fault.Active() {
		inject = plan
	}
	caster, err := netcast.NewCaster(prog, ring, inject)
	if err != nil {
		return nil, err
	}

	eng := &engine{
		ring:       ring,
		plan:       plan,
		a:          a,
		stream:     stream,
		times:      sim.ExpectedTimes(prog.GroupSet()),
		pages:      prog.GroupSet().Pages(),
		cycleLen:   prog.Length(),
		waits:      make([]float64, count),
		attempts:   make([]int32, count),
		ledgers:    make([]chaos.Ledger, shards),
		watermarks: make([]watermark, workers),
	}

	slotsAired := int64(plan.MaxCycles()) * int64(prog.Length())
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		errs[workers] = eng.broadcast(ctx, caster, slotsAired)
	}()
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			errs[w] = eng.work(ctx, w, workers, shards)
		}()
	}
	wg.Wait()
	// The broadcaster and every worker poll ctx and unblock on
	// cancellation, so the join above terminates; a cancelled run never
	// reports results, even if the goroutines happened to finish first.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	if err := eng.fold(res); err != nil {
		return nil, err
	}
	res.SlotsAired = slotsAired
	res.FaultStats = caster.Faults()
	return finish(res, plan, prog)
}

// finish attaches the chaos engine's plan-level quantities to res.
func finish(res *Result, plan *chaos.Plan, prog *core.Program) (*Result, error) {
	if err := chaos.Finish(&res.Result, plan, prog); err != nil {
		return nil, err
	}
	return res, nil
}

// broadcast publishes exactly slots slots through the caster — the air
// does not stop when clients finish, so the server-side FaultStats are a
// deterministic function of the plan — pacing itself so no slot a client
// still needs is ever overwritten: slot abs may air only once every
// worker's pending watermark is within one ring length of it. Watermarks
// are per-worker monotone (a worker drains its calendar in slot order and
// every retry reschedules later), so a slot that cleared the gate can
// never be wanted again.
//
// A shut gate spins on runtime.Gosched rather than blocking: it is shut
// for the whole build phase, and a variant that parked on a channel the
// workers signal after each watermark store was no faster
// (BenchmarkRunStream, 10 interleaved pairs on a 2-vCPU VM: median 269
// against the spin's 272 ms, winning 3 of 10 pairs, upper quartile 321
// against 303 ms), while it adds a send to every drained slot.
func (e *engine) broadcast(ctx context.Context, caster *netcast.Caster, slots int64) error {
	ringSlots := int64(e.ring.Slots())
	for abs := int64(0); abs < slots; abs++ {
		// abs-ringSlots >= watermark, not abs >= watermark+ringSlots: the
		// finished-worker watermark is MaxInt64 and must not overflow.
		for abs-ringSlots >= e.minWatermark() {
			if err := ctx.Err(); err != nil {
				e.failed.Store(true)
				return err
			}
			if e.failed.Load() {
				return nil
			}
			runtime.Gosched()
		}
		caster.CastSlot(int(abs))
	}
	return nil
}

func (e *engine) minWatermark() int64 {
	min := int64(math.MaxInt64)
	for i := range e.watermarks {
		if w := e.watermarks[i].Load(); w < min {
			min = w
		}
	}
	return min
}

// work runs one client shard-group: build the delivery state machines
// for every owned shard into a slot calendar, then drain it in slot order
// against the ring. The worker's watermark stays 0 for the whole build
// phase — a later shard can contribute an earlier first event, so
// advancing it early would let the broadcaster overwrite a slot a
// still-unbuilt client needs.
//
// The calendar has 2L buckets indexed by absolute slot mod 2L. The
// program repeats every L slots, so while slot s drains every pending
// opportunity lies in [s, s+2L): a first opportunity is at most one wrap
// past the arrival offset, below 2L, and a retry moves to the page's next
// airing, at most L ahead. No two pending slots therefore share a bucket.
// Order within a bucket is immaterial: every outcome is a pure function
// of (request, plan), recorded at its global index.
func (e *engine) work(ctx context.Context, w, workers, shards int) error {
	defer e.watermarks[w].Store(math.MaxInt64)
	cal := newCalendar(ownedClients(e.stream.Count(), w, workers), 2*int64(e.cycleLen))
	pending := 0
	cur := e.stream.NewCursor()
	L := float64(e.cycleLen)
	var r workload.Request
	for shard := w; shard < shards; shard += workers {
		ledger := &e.ledgers[shard]
		cur.Seek(shard)
		for local := 0; cur.Next(&r); local++ {
			glob := int64(shard)*workload.ShardSize + int64(local)
			if err := sim.CheckRequest(&r, glob, e.pages); err != nil {
				e.failed.Store(true)
				return err
			}
			c := client{glob: glob, page: r.Page}
			if !c.Start(e.plan, e.a, nil, r.Page, core.CycleMod(r.Arrival, L), ledger) {
				e.waits[glob] = c.Wait(e.plan, e.a, r.Page)
				continue
			}
			cal.push(&c)
			pending++
		}
	}
	for s := int64(0); pending > 0; s++ {
		k := cal.take(s)
		if k < 0 {
			continue
		}
		e.watermarks[w].Store(s)
		// Every channel of slot s becomes readable at once.
		for e.ring.Head() <= s {
			if err := ctx.Err(); err != nil {
				e.failed.Store(true)
				return err
			}
			if e.failed.Load() {
				return nil
			}
			runtime.Gosched()
		}
		for ; k >= 0; k = cal.release(k) {
			for j := int32(0); j < cal.chunks[k].n; j++ {
				c := &cal.chunks[k].recs[j]
				done, err := e.step(c, &e.ledgers[int(c.glob/workload.ShardSize)])
				if err != nil {
					e.failed.Store(true)
					return err
				}
				if done {
					pending--
				} else {
					cal.push(c)
				}
			}
		}
	}
	return nil
}

// ownedClients is how many of count requests worker w of workers owns:
// the shards w, w+workers, w+2*workers, ... It sizes the worker's
// calendar arena.
func ownedClients(count, w, workers int) int {
	n := 0
	for start := w * workload.ShardSize; start < count; start += workers * workload.ShardSize {
		n += min(workload.ShardSize, count-start)
	}
	return n
}

// step resolves client c's pending appearance against the ring. The plan
// charges it (chaos.Plan.Charge), and the slot must poll as the
// channel-side part of that charge says: skipped for a stall or loss,
// corrupt for corruption, and otherwise an intact frame carrying the page.
func (e *engine) step(c *client, ledger *chaos.Ledger) (done bool, err error) {
	abs := c.Next
	reason := e.plan.Charge(&c.Walk, c.glob)
	want := netcast.RingOK
	switch reason {
	case chaos.SkipStall, chaos.SkipLoss:
		want = netcast.RingSkipped
	case chaos.SkipCorrupt:
		want = netcast.RingCorrupt
	case chaos.SkipNone, chaos.SkipChurn: // the frame aired intact
	}
	switch f, st := e.ring.Poll(int(c.Ch), abs); {
	case st == netcast.RingLost:
		// Flow control guarantees this cannot happen; if it does, the
		// determinism contract is broken and the run must fail loudly.
		return false, fmt.Errorf("loadgen: slot %d channel %d overwritten before client %d read it",
			abs, c.Ch, c.glob)
	case st != want:
		return false, fmt.Errorf("loadgen: slot %d channel %d polled with status %d, plan charges fault %d",
			abs, c.Ch, st, reason)
	case st == netcast.RingOK && f.Page != c.page:
		return false, fmt.Errorf("loadgen: slot %d channel %d carried page %d, client expected %d",
			abs, c.Ch, f.Page, c.page)
	}
	if reason != chaos.SkipNone && c.Skip(e.plan, e.a, reason, c.page, ledger) {
		return false, nil
	}
	e.waits[c.glob] = c.Wait(e.plan, e.a, c.page)
	// attempts is freshly zeroed: on fault-free air skipping the zero
	// store leaves one cold line per client instead of two.
	if c.Attempts != 0 {
		e.attempts[c.glob] = c.Attempts
	}
	return true, nil
}

// fold replays the recorded per-request outcomes on the measurement
// kernel — the waits and attempt counts become exactly the values the
// chaos fault walk folds — so the Result is worker-count-independent and
// engine-identical. The broadcaster and the client workers have exited by
// now, so the fold runs on GOMAXPROCS workers whatever Options.Workers
// was; the kernel's Fold is bit-identical at any worker count.
func (e *engine) fold(res *Result) error {
	span := sim.CycleSpan(float64(e.cycleLen), 1)
	fold, err := sim.FoldShards(e.stream, runtime.GOMAXPROCS(0), span, span, func() sim.Visit {
		var r workload.Request
		return func(shard int, cur workload.Cursor, p *sim.Partial) error {
			for glob := shard * workload.ShardSize; cur.Next(&r); glob++ {
				p.AddWait(r.Page, e.waits[glob], e.times[r.Page], uint64(e.attempts[glob]))
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	res.Metrics = fold.Metrics()
	res.Misses = fold.Hits
	res.TraceDigest = fold.Digest
	for k := range e.ledgers {
		res.Ledger.Add(&e.ledgers[k])
	}
	return nil
}
