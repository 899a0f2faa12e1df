package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/replan"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// Live catalog: the paper instance ×10 owned by a replan.Engine and aired
// into a broadcast ring, with one edit every liveEditEvery aired slots
// (open loop in virtual time). Clients arrive as a Poisson stream in
// virtual time and are served by whatever epoch is on air.
const (
	liveFactor      = 10
	liveEditEvery   = 64
	liveEdits       = 500
	liveToyEdits    = 20
	liveToggleEvery = 100  // every 100th edit is a rebuild
	liveToggleGroup = 7    // group 8, 0-based: its expected time toggles 512 ↔ 1024
	liveRate        = 16.0 // client arrivals per aired slot
	liveSetupBuilds = 200  // about 0.8 ms each
)

// liveClients is the client stream bucketed by the slot at which each
// client is first waiting: ceil(arrival).
type liveClients struct {
	offs    []int32 // per slot, into page/arrival
	page    []core.PageID
	arrival []float64
}

// bucketClients keeps the stream's requests that arrive before limit,
// grouped by ceil(arrival) over horizon slots.
func bucketClients(stream workload.Stream, limit, horizon int) *liveClients {
	lc := &liveClients{offs: make([]int32, horizon+1)}
	type req struct {
		slot int
		r    workload.Request
	}
	var reqs []req
	cur := stream.NewCursor()
	var r workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&r) {
			slot := int(math.Ceil(r.Arrival))
			if slot >= limit {
				continue
			}
			reqs = append(reqs, req{slot, r})
			lc.offs[slot+1]++
		}
	}
	for i := 0; i < horizon; i++ {
		lc.offs[i+1] += lc.offs[i]
	}
	lc.page = make([]core.PageID, len(reqs))
	lc.arrival = make([]float64, len(reqs))
	fill := append([]int32(nil), lc.offs[:limit]...)
	for _, q := range reqs {
		i := fill[q.slot]
		lc.page[i], lc.arrival[i] = q.r.Page, q.r.Arrival
		fill[q.slot]++
	}
	return lc
}

// liveOutcome is what one live repetition measured.
type liveOutcome struct {
	secs     float64 // wall time less steal, see netSeconds
	slots    int
	served   int64
	unserved int64
	rejected int64
	badPolls int64
	misses   int64
	wait     stats.Online
	delay    stats.Online
	waitSk   *stats.Sketch
	kinds    [4]int
	placed   int
	flips    int
	flipWait int64
	eventMs  []float64 // per staged edit: edit → snapshot → stage
}

func liveCatalog(r *run) error {
	gs, err := paperGroupSet(liveFactor)
	if err != nil {
		return err
	}
	n := core.CeilDiv(gs.MinChannels(), 5)
	edits := liveEdits
	if r.toy {
		edits = liveToyEdits
	}
	horizon := edits * liveEditEvery
	// Clients stop arriving four cycles before the air ends, so every one
	// is served while the air lasts.
	limit := horizon - min(4*1024, horizon/2)
	stream, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: int(liveRate * float64(limit)), Seed: r.seed},
		Rate:          liveRate,
	})
	if err != nil {
		return err
	}
	clients := bucketClients(stream, limit, horizon)

	var eng *replan.Engine
	newEngine := func() (err error) {
		sp := r.tr.begin("replan.New", 0)
		eng, err = replan.New(gs, n)
		r.tr.end(sp, 1)
		return err
	}
	var last *liveOutcome
	var eventMs []float64 // pooled over the timed repetitions
	err = r.repeat(1, func() error {
		return r.timeSetup(liveSetupBuilds, newEngine)
	}, func(timed bool) error {
		if eng == nil {
			if err := newEngine(); err != nil {
				return err
			}
		}
		if err := placementGate(eng.Program(), eng.Frequencies(), eng.Stats()); err != nil {
			return err
		}
		out, err := r.liveRep(eng, clients, horizon)
		if err != nil {
			return err
		}
		if out.badPolls > 0 {
			return gatef("live-catalog: %d verifier polls disagreed with their epoch's program", out.badPolls)
		}
		if err := scratchGate(eng); err != nil {
			return err
		}
		eng = nil
		if !timed {
			return nil
		}
		last = out
		eventMs = append(eventMs, out.eventMs...)
		r.sample("clients_per_s", float64(out.served)/out.secs)
		r.sample("air_slots_per_s", float64(out.slots)/out.secs)
		r.sample("wait_avg_slots", out.wait.Mean())
		r.sample("wait_p99_slots", out.waitSk.Quantile(0.99))
		r.sample("avg_delay_slots", out.delay.Mean())
		r.sample("miss_ratio", float64(out.misses)/float64(max(out.served, 1)))
		r.attempted += int64(edits) + out.served + out.unserved
		r.failed += out.rejected + out.unserved
		return nil
	})
	if err != nil {
		return err
	}
	r.samplePooled("replan_ms", eventMs)
	if r.tr == nil {
		return nil
	}

	in, err := r.build(liveFactor)
	if err != nil {
		return err
	}
	r.instanceLayers(in)
	r.setupLayers(replayOnly)
	if err := r.replayLayers(in.a, stream, int64(horizon), nil, waitsOf(in.a, stream)); err != nil {
		return err
	}
	editMs := r.tr.durations("replan.edit", timedRep)
	tot := r.tr.totals(timedRep)
	r.layers["replan.edit_p50_ms"] = stats.Percentile(editMs, 0.50)
	r.layers["replan.edit_p99_ms"] = stats.Percentile(editMs, 0.99)
	r.layers["replan.snapshot_ms"] = perCall(tot["replan.Engine.Snapshot"]) / 1e6
	r.layers["netcast.stage_ns"] = perCall(tot["netcast.Caster.StageProgram"])
	for k, name := range []string{"none", "append", "suffix", "rebuild"} {
		r.layers["replan.kind."+name] = float64(last.kinds[k])
	}
	r.layers["replan.placed_cells_per_edit"] = float64(last.placed) / float64(edits)
	r.layers["netcast.epochs"] = float64(last.flips)
	r.layers["netcast.flip_wait_slots"] = float64(last.flipWait) / float64(max(last.flips, 1))
	return nil
}

// liveRep airs horizon slots of eng's program while editing it, with one
// verifier goroutine reading every aired (channel, slot) back out of the
// ring and serving the clients waiting for what it read.
func (r *run) liveRep(eng *replan.Engine, clients *liveClients, horizon int) (*liveOutcome, error) {
	prog0 := eng.Snapshot()
	gs0 := eng.GroupSet()
	ring, err := netcast.NewBroadcastRing(prog0.Channels(), 0)
	if err != nil {
		return nil, err
	}
	caster, err := netcast.NewCaster(prog0, ring, nil)
	if err != nil {
		return nil, err
	}
	sk, err := sketchFor(prog0.Length())
	if err != nil {
		return nil, err
	}
	out := &liveOutcome{slots: horizon, waitSk: sk}

	sh := newLiveShared(caster.Epoch())
	var airErr error
	var wg sync.WaitGroup
	wg.Add(2)
	w := r.startWatch()
	go func() {
		defer wg.Done()
		defer sh.end()
		airErr = r.liveAir(eng, caster, ring.Slots(), horizon, gs0, out, sh)
	}()
	go func() {
		defer wg.Done()
		liveVerify(clients, gs0, ring, horizon, out, sh)
	}()
	wg.Wait()
	out.secs = r.netSeconds(w)
	if airErr != nil {
		return nil, airErr
	}
	return out, nil
}

// liveShared is what the caster and verifier goroutines share. Each side
// blocks, rather than spins, while it waits for the other, so the second
// core stays free for the garbage collector the edits keep busy.
type liveShared struct {
	mu       sync.Mutex
	epochs   []netcast.EpochInfo // every epoch aired so far, in order; under mu
	cast     atomic.Int64        // slots cast so far
	verified atomic.Int64        // slots verified so far
	castMore chan struct{}       // a token after cast grows
	readMore chan struct{}       // a token after verified grows
	stop     chan struct{}       // closed when either goroutine returns
	stopOnce sync.Once
}

func newLiveShared(ep netcast.EpochInfo) *liveShared {
	return &liveShared{
		epochs:   []netcast.EpochInfo{ep},
		castMore: make(chan struct{}, 1),
		readMore: make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
}

func (sh *liveShared) end() { sh.stopOnce.Do(func() { close(sh.stop) }) }

// wake leaves a token for a waiter, or finds one already there.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// liveAir is the caster goroutine: it airs one slot at a time, never more
// than a ring length ahead of the verifier, and applies an edit after
// every liveEditEvery slots: Engine edit → Snapshot → Caster.StageProgram.
func (r *run) liveAir(eng *replan.Engine, caster *netcast.Caster, ringSlots, horizon int, gs0 *core.GroupSet,
	out *liveOutcome, sh *liveShared) error {
	rng := rand.New(rand.NewSource(r.seed))
	seq, stagedAt, edit := 0, 0, 0
	for abs := 0; abs < horizon; abs++ {
		for int64(abs)-sh.verified.Load() >= int64(ringSlots) {
			select {
			case <-sh.readMore:
			case <-sh.stop:
				return fmt.Errorf("live-catalog: verifier stopped at slot %d", sh.verified.Load())
			}
		}
		caster.CastSlot(abs)
		if ep := caster.Epoch(); ep.Seq != seq {
			seq = ep.Seq
			out.flips++
			out.flipWait += int64(ep.Base - stagedAt)
			sh.mu.Lock()
			sh.epochs = append(sh.epochs, ep)
			sh.mu.Unlock()
		}
		sh.cast.Store(int64(abs + 1))
		wake(sh.castMore)
		if (abs+1)%liveEditEvery != 0 {
			continue
		}
		edit++
		t0 := time.Now()
		ev := r.tr.begin("replan.event", 0)
		sp := r.tr.begin("replan.edit", ev)
		d, err := liveEdit(eng, rng, edit, gs0)
		r.tr.end(sp, 1)
		if err != nil {
			out.rejected++
			r.tr.end(ev, 1)
			continue
		}
		sp = r.tr.begin("replan.Engine.Snapshot", ev)
		snap := eng.Snapshot()
		r.tr.end(sp, 1)
		sp = r.tr.begin("netcast.Caster.StageProgram", ev)
		err = caster.StageProgram(snap)
		r.tr.end(sp, 1)
		r.tr.end(ev, 1)
		if err != nil {
			return err
		}
		out.eventMs = append(out.eventMs, float64(time.Since(t0))/1e6)
		stagedAt = abs + 1
		out.kinds[d.Kind]++
		out.placed += d.PlacedCells
	}
	return nil
}

// liveEdit applies edit number k: every liveToggleEvery-th toggles the
// last group's expected time, the rest add or retire a page of a seeded
// random group. A group never shrinks below its initial size, so the
// initial pages are stable handles clients can ask for.
func liveEdit(eng *replan.Engine, rng *rand.Rand, k int, gs0 *core.GroupSet) (*replan.Delta, error) {
	gs := eng.GroupSet()
	if k%liveToggleEvery == 0 {
		t := 1024
		if gs.Group(liveToggleGroup).Time == 1024 {
			t = 512
		}
		return eng.SetExpectedTime(liveToggleGroup, t)
	}
	g := rng.Intn(gs.Len())
	if gs.Group(g).Count > gs0.Group(g).Count && rng.Intn(2) == 0 {
		return eng.RetirePage(g)
	}
	return eng.AddPage(g)
}

// liveVerify is the reader goroutine: for every aired slot it polls each
// channel, checks the frame against the program of the epoch that aired
// it, and serves the clients waiting for the pages it read.
func liveVerify(clients *liveClients, gs0 *core.GroupSet, ring *netcast.BroadcastRing, horizon int,
	out *liveOutcome, sh *liveShared) {
	defer sh.end()
	channels := ring.Channels()
	frames := make([]netcast.Frame, channels)
	status := make([]netcast.PollStatus, channels)
	waiting := make([][]float64, gs0.Pages())
	var handle []int32
	var times []float64
	epoch := -1
	for abs := 0; abs < horizon; abs++ {
		for sh.cast.Load() <= int64(abs) {
			select {
			case <-sh.castMore:
			case <-sh.stop:
				return
			}
		}
		sh.mu.Lock()
		flipped := false
		for epoch+1 < len(sh.epochs) && sh.epochs[epoch+1].Base <= abs {
			epoch++
			flipped = true
		}
		ep := sh.epochs[epoch]
		sh.mu.Unlock()
		if flipped {
			handle, times = liveHandles(ep.Program.GroupSet(), gs0, handle[:0], times[:0])
		}
		for i := clients.offs[abs]; i < clients.offs[abs+1]; i++ {
			p := clients.page[i]
			waiting[p] = append(waiting[p], clients.arrival[i])
		}
		for ch := 0; ch < channels; ch++ {
			frames[ch], status[ch] = ring.Poll(ch, int64(abs))
		}
		col := ep.Program.Column(abs - ep.Base)
		for ch := 0; ch < channels; ch++ {
			want := ep.Program.At(ch, col)
			if status[ch] != netcast.RingOK || frames[ch].Page != want {
				out.badPolls++
				continue
			}
			if want == core.None {
				continue
			}
			h := handle[want]
			if h < 0 {
				continue
			}
			for _, u := range waiting[h] {
				w := float64(abs) - u
				d := math.Max(0, w-times[want])
				out.wait.Add(w)
				out.waitSk.Add(w)
				out.delay.Add(d)
				if d > 0 {
					out.misses++
				}
				out.served++
			}
			waiting[h] = waiting[h][:0]
		}
		sh.verified.Store(int64(abs + 1))
		wake(sh.readMore)
	}
	for _, w := range waiting {
		out.unserved += int64(len(w))
	}
}

// liveHandles maps every page of the epoch's group set to the initial
// page it continues (-1 for pages added since), and gives each page's
// expected time.
func liveHandles(gs, gs0 *core.GroupSet, handle []int32, times []float64) ([]int32, []float64) {
	for g := 0; g < gs.Len(); g++ {
		first0, count0 := gs0.GroupPages(g)
		_, count := gs.GroupPages(g)
		t := float64(gs.Group(g).Time)
		for j := 0; j < count; j++ {
			h := int32(-1)
			if j < count0 {
				h = int32(first0) + int32(j)
			}
			handle = append(handle, h)
			times = append(times, t)
		}
	}
	return handle, times
}

// scratchGate checks that the edited program is bit-identical to a
// from-scratch PAMAD placement of the final instance.
func scratchGate(eng *replan.Engine) error {
	gs, n := eng.GroupSet(), eng.Channels()
	s, _, err := pamad.Frequencies(gs, n)
	if err != nil {
		return err
	}
	want, st, err := pamad.PlaceEvenly(gs, s, n)
	if err != nil {
		return err
	}
	got := eng.Program()
	if got.Channels() != want.Channels() || got.Length() != want.Length() {
		return gatef("live-catalog: edited grid %dx%d, scratch %dx%d",
			got.Channels(), got.Length(), want.Channels(), want.Length())
	}
	for ch := 0; ch < want.Channels(); ch++ {
		for col := 0; col < want.Length(); col++ {
			if got.At(ch, col) != want.At(ch, col) {
				return gatef("live-catalog: edited grid differs from scratch at (%d, %d)", ch, col)
			}
		}
	}
	return placementGate(got, s, st)
}
