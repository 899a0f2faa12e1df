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
// with faults off it therefore reproduces sim.MeasureStream exactly.
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

// Config describes one load-generation scenario: the paper instance, the
// client population, and the fault plan.
type Config struct {
	// Clients is the simulated client population (one request each).
	Clients int
	// Workers shards the clients; 0 = GOMAXPROCS. The Result is
	// bit-identical at any worker count.
	Workers int
	// Dist shapes the group-size distribution (paper Figure 3).
	Dist workload.Distribution
	// Channels is the broadcast channel count; 0 = the paper's knee,
	// ceil(MinChannels/5), the operating point the sweep PRs pinned.
	Channels int
	// Pages/Groups/BaseTime/Ratio parameterise the instance; zero values
	// take the paper's Figure 4 defaults (1000, 8, 4, 2).
	Pages, Groups, BaseTime, Ratio int
	// Seed drives the request stream (page choices and arrivals).
	Seed int64
	// PageChoice selects uniform or Zipf page popularity; Theta is the
	// Zipf exponent.
	PageChoice workload.PageChoice
	Theta      float64
	// Fault is the chaos plan driven through the transport. The zero
	// value is fault-free air.
	Fault chaos.Config
	// RingSlots is the broadcast-ring depth in slots; 0 = the netcast
	// default. Depth only affects scheduling slack, never results.
	RingSlots int
}

func (c Config) withDefaults() Config {
	if c.Pages == 0 {
		c.Pages = 1000
	}
	if c.Groups == 0 {
		c.Groups = 8
	}
	if c.BaseTime == 0 {
		c.BaseTime = 4
	}
	if c.Ratio == 0 {
		c.Ratio = 2
	}
	return c
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
	Workers   int // 0 = GOMAXPROCS
	RingSlots int // 0 = netcast.DefaultRingSlots
}

// Materialize builds the scenario cfg describes: the group-set instance,
// its PAMAD program (at the knee channel count when cfg.Channels is 0)
// analysed for appearance lookup, and the request stream over it.
func Materialize(cfg Config) (*core.Analysis, workload.Stream, error) {
	cfg = cfg.withDefaults()
	if cfg.Clients < 0 {
		return nil, nil, fmt.Errorf("loadgen: negative client count %d", cfg.Clients)
	}
	gs, err := workload.GroupSet(cfg.Dist, cfg.Groups, cfg.Pages, cfg.BaseTime, cfg.Ratio)
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

// Run materialises the scenario cfg describes (instance, PAMAD program,
// request stream) and measures it through the in-process transport.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	a, stream, err := Materialize(cfg)
	if err != nil {
		return nil, err
	}
	return RunStream(ctx, a, stream, cfg.Fault, Options{
		Workers:   cfg.Workers,
		RingSlots: cfg.RingSlots,
	})
}

// client is one pending request's delivery state machine. The fields are
// ordered so the calendar link packs into what would otherwise be padding:
// the record is 48 bytes.
type client struct {
	next     int64 // absolute slot of the pending delivery opportunity
	glob     int64 // global request index (shard*ShardSize + local)
	u        float64
	page     core.PageID
	k        int32
	wraps    int32
	attempts int32
	ch       int32 // channel of the pending opportunity
	link     int32 // next client in the same calendar bucket; -1 ends it
}

// engine carries the shared state of one RunStream measurement.
type engine struct {
	ring      *netcast.BroadcastRing
	plan      *chaos.Plan
	ix        *core.AppearanceIndex
	chanOf    [][]int32
	stream    workload.Stream
	times     []float64
	pages     int
	cycleLen  int
	maxCycles int
	active    bool

	waits      []float64
	attempts   []int32
	ledgers    []chaos.Ledger
	watermarks []atomic.Int64
	failed     atomic.Bool
}

// RunStream measures stream against the analysed program under the fault
// plan, through the in-process ring transport. Metrics, ledger and trace
// digest are bit-identical to chaos.RunParallel on the same inputs at any
// worker count; with an inactive fault config they are therefore
// bit-identical to sim.MeasureStream.
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
	maxCycles := fault.MaxCycles
	if maxCycles <= 0 {
		maxCycles = chaos.DefaultMaxCycles
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
	if n := ownedClients(count, 0, workers); n > math.MaxInt32 {
		return nil, fmt.Errorf("loadgen: %d clients on one of %d workers overflow the calendar's int32 links", n, workers)
	}
	ring, err := netcast.NewBroadcastRing(prog.Channels(), opts.RingSlots)
	if err != nil {
		return nil, err
	}
	caster, err := netcast.NewCaster(prog, ring, plan)
	if err != nil {
		return nil, err
	}

	eng := &engine{
		ring:       ring,
		plan:       plan,
		ix:         a.Index(),
		chanOf:     chaos.ChannelTable(prog, a.Index()),
		stream:     stream,
		times:      sim.ExpectedTimes(prog.GroupSet()),
		pages:      prog.GroupSet().Pages(),
		cycleLen:   prog.Length(),
		maxCycles:  maxCycles,
		active:     fault.Active(),
		waits:      make([]float64, count),
		attempts:   make([]int32, count),
		ledgers:    make([]chaos.Ledger, shards),
		watermarks: make([]atomic.Int64, workers),
	}

	slotsAired := int64(maxCycles) * int64(prog.Length())
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

	if err := eng.fold(res, workers); err != nil {
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
// The calendar is a ring of 2L bucket heads indexed by absolute slot
// mod 2L, each the head of a list linked through client.link. The program
// repeats every L slots, so while slot s drains every pending opportunity
// lies in [s, s+2L): a first opportunity is at most one wrap past the
// arrival offset, below 2L, and a retry moves to the page's next airing,
// at most L ahead. No two pending slots therefore share a bucket.
// Order within a bucket is immaterial: every outcome is a pure function
// of (request, plan), recorded at its global index.
func (e *engine) work(ctx context.Context, w, workers, shards int) error {
	defer e.watermarks[w].Store(math.MaxInt64)
	clients := make([]client, 0, ownedClients(e.stream.Count(), w, workers))
	window := 2 * int64(e.cycleLen)
	heads := make([]int32, window)
	for i := range heads {
		heads[i] = -1
	}
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
			u := math.Mod(r.Arrival, L)
			cols := e.ix.Columns(r.Page)
			if len(cols) == 0 {
				// Never-aired page: the engines charge a full cycle.
				e.waits[glob] = L
				continue
			}
			// First candidate appearance at or after the arrival offset.
			k := sim.NextIndex(nil, r.Page, cols, u)
			wraps := int32(0)
			if int(k) == len(cols) {
				k, wraps = 0, 1
			}
			if int(wraps) >= e.maxCycles {
				// Only reachable at MaxCycles 1 with a wrapped arrival:
				// the engine gives up before the first opportunity.
				ledger.Unserved++
				e.waits[glob] = float64(e.maxCycles) * L
				continue
			}
			next := int64(wraps)*int64(e.cycleLen) + int64(cols[k])
			b := next % window
			clients = append(clients, client{
				glob:  glob,
				page:  r.Page,
				u:     u,
				k:     k,
				wraps: wraps,
				next:  next,
				ch:    e.chanOf[r.Page][k],
				link:  heads[b],
			})
			heads[b] = int32(len(clients) - 1)
		}
	}
	pending := len(clients)
	for s := int64(0); pending > 0; s++ {
		b := s % window
		i := heads[b]
		if i < 0 {
			continue
		}
		heads[b] = -1
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
		for i >= 0 {
			c := &clients[i]
			link := c.link
			done, err := e.step(c, &e.ledgers[int(c.glob/workload.ShardSize)], L)
			if err != nil {
				e.failed.Store(true)
				return err
			}
			if done {
				pending--
			} else {
				nb := c.next % window
				c.link, heads[nb] = heads[nb], i
			}
			i = link
		}
	}
	return nil
}

// ownedClients is how many of count requests worker w of workers owns:
// the shards w, w+workers, w+2*workers, ... The calendar links clients by
// int32 index, so RunStream refuses a worker that would own more than
// math.MaxInt32.
func ownedClients(count, w, workers int) int {
	n := 0
	for start := w * workload.ShardSize; start < count; start += workers * workload.ShardSize {
		n += min(workload.ShardSize, count-start)
	}
	return n
}

// step resolves one delivery opportunity for client c against the ring,
// in the measurement engine's exact priority order: the slot's poll
// status covers the channel-side faults (stall, loss, corruption), a
// received frame can still be missed to client churn, and a served
// client computes its wait with the engine's exact arithmetic.
func (e *engine) step(c *client, ledger *chaos.Ledger, L float64) (done bool, err error) {
	abs := c.next
	cols := e.ix.Columns(c.page)
	f, st := e.ring.Poll(int(c.ch), abs)
	skipped := true
	switch st {
	case netcast.RingOK:
		if f.Page != c.page {
			return false, fmt.Errorf("loadgen: slot %d channel %d carried page %d, client expected %d",
				abs, c.ch, f.Page, c.page)
		}
		if e.active && e.plan.ChurnAway(c.glob, int(c.attempts)) {
			ledger.ChurnSkips++
		} else {
			skipped = false
		}
	case netcast.RingSkipped:
		switch e.plan.Classify(int(c.ch), int(abs)) {
		case chaos.SkipStall:
			ledger.StallSkips++
		case chaos.SkipLoss:
			ledger.LostDeliveries++
		default:
			return false, fmt.Errorf("loadgen: slot %d channel %d skipped without a plan fault", abs, c.ch)
		}
	case netcast.RingCorrupt:
		if e.plan.Classify(int(c.ch), int(abs)) != chaos.SkipCorrupt {
			return false, fmt.Errorf("loadgen: slot %d channel %d corrupt without a plan fault", abs, c.ch)
		}
		ledger.CorruptSkips++
	case netcast.RingLost:
		// Flow control guarantees this cannot happen; if it does, the
		// determinism contract is broken and the run must fail loudly.
		return false, fmt.Errorf("loadgen: slot %d channel %d overwritten before client %d read it",
			abs, c.ch, c.glob)
	case netcast.RingPending:
		return false, fmt.Errorf("loadgen: slot %d channel %d polled before airing", abs, c.ch)
	}
	if skipped {
		c.attempts++
		ledger.Retries++
		if c.k++; int(c.k) == len(cols) {
			c.k, c.wraps = 0, c.wraps+1
		}
		if int(c.wraps) >= e.maxCycles {
			ledger.Unserved++
			e.waits[c.glob] = float64(e.maxCycles) * L
			e.attempts[c.glob] = c.attempts
			return true, nil
		}
		c.next = int64(c.wraps)*int64(e.cycleLen) + int64(cols[c.k])
		c.ch = e.chanOf[c.page][c.k]
		return false, nil
	}
	var wait float64
	if c.wraps == 0 {
		wait = float64(cols[c.k]) - c.u
	} else {
		wait = float64(cols[c.k]) + float64(c.wraps)*L - c.u
	}
	// With an inactive plan this adds exactly +0.0, so the fault-free
	// wait stays bit-identical to the engines' closed-form branch.
	wait += e.plan.JitterAt(int(abs))
	e.waits[c.glob] = wait
	e.attempts[c.glob] = c.attempts
	return true, nil
}

// fold replays the recorded per-request outcomes on the measurement
// kernel — the waits and attempt counts become exactly the values the
// chaos fault walk folds — so the Result is worker-count-independent and
// engine-identical.
func (e *engine) fold(res *Result, workers int) error {
	span := sim.CycleSpan(float64(e.cycleLen), 1)
	fold, err := sim.FoldShards(e.stream, workers, span, span, func() sim.Visit {
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
