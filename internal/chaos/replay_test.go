package chaos

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/mpb"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// replayUnder replays reqs on prog's air under the fault plan cfg
// describes, with patient schedule-aware clients.
func replayUnder(t testing.TB, prog *core.Program, reqs []workload.Request, cfg Config) (*Outcome, *Plan) {
	t.Helper()
	plan, err := NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Replay(prog, reqs, ReplayConfig{Mode: ScheduleAware, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return out, plan
}

// replayMatchesWalk checks that the per-client replay and RunParallel
// agree on one plan: they leave the same clients unserved, and the
// replay's served waits plus MaxCycles cycles per unserved client sum to
// the walks' total wait.
func replayMatchesWalk(t *testing.T, prog *core.Program, reqs []workload.Request, cfg Config) {
	t.Helper()
	out, plan := replayUnder(t, prog, reqs, cfg)
	walk, err := RunParallel(core.Analyze(prog), workload.SliceStream(reqs), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if int64(out.Unserved) != walk.Unserved {
		t.Fatalf("%+v: replay left %d unserved, walk %d", cfg, out.Unserved, walk.Unserved)
	}
	if out.Served+out.Unserved != len(reqs) {
		t.Fatalf("%+v: served %d + unserved %d != %d", cfg, out.Served, out.Unserved, len(reqs))
	}
	giveUp := float64(plan.MaxCycles() * prog.Length())
	got := out.AvgWait*float64(out.Served) + float64(out.Unserved)*giveUp
	want := walk.AvgWait * float64(walk.Requests)
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%+v: replay total wait %.12g, walk %.12g", cfg, got, want)
	}
}

// TestReplayMatchesWalk: on PAMAD programs of 1, 3 and 7 channels, the
// per-client replay and RunParallel agree client for client under every
// fault class — loss, corruption with stalls, bursts, loss heavy enough
// that clients give up at a small MaxCycles, jitter and churn — for
// first-cycle arrivals and for a Poisson stream spanning many cycles.
func TestReplayMatchesWalk(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 60, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plans := []Config{
		{Seed: 1, Loss: 0.2},
		{Seed: 2, Corrupt: 0.1, StallEvery: 16, StallFor: 3},
		{Seed: 3, Burst: &BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossGood: 0.01, LossBad: 0.8}},
		{Seed: 4, Loss: 0.9, MaxCycles: 2},
		{Seed: 5, Loss: 0.1, Jitter: 0.4},
		{Seed: 6, Churn: 0.3, Corrupt: 0.05, Jitter: 0.25},
	}
	for _, channels := range []int{1, 3, 7} {
		prog, _, err := pamad.Build(gs, channels)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 1000, Seed: int64(channels)})
		if err != nil {
			t.Fatal(err)
		}
		poisson, err := workload.GeneratePoissonRequests(gs, workload.PoissonConfig{
			RequestConfig: workload.RequestConfig{Count: 1000, Seed: int64(channels)},
			Rate:          0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range plans {
			t.Run(fmt.Sprintf("N=%d/seed=%d", channels, cfg.Seed), func(t *testing.T) {
				replayMatchesWalk(t, prog, reqs, cfg)
			})
			t.Run(fmt.Sprintf("N=%d/poisson/seed=%d", channels, cfg.Seed), func(t *testing.T) {
				replayMatchesWalk(t, prog, poisson, cfg)
			})
		}
	}
}

// FuzzReplayMatchesWalk fuzzes the replay/walk identity over arbitrary
// plans, jitter and churn included, on 1 to 5 channels.
func FuzzReplayMatchesWalk(f *testing.F) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 60, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	progs := make([]*core.Program, 5)
	reqs := make([][]workload.Request, len(progs))
	for i := range progs {
		if progs[i], _, err = pamad.Build(gs, i+1); err != nil {
			f.Fatal(err)
		}
		if reqs[i], err = workload.GenerateRequests(gs, progs[i].Length(), workload.RequestConfig{Count: 300, Seed: 9}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(int64(1), uint16(0), uint16(0), uint8(0), uint8(0), false, uint8(0), uint16(0), uint16(0), uint8(0))
	f.Add(int64(5), uint16(1<<14), uint16(3000), uint8(16), uint8(3), true, uint8(3), uint16(0), uint16(0), uint8(0))
	f.Add(int64(-2), uint16(0xfff0), uint16(0), uint8(0), uint8(0), false, uint8(1), uint16(0), uint16(0), uint8(0))
	f.Add(int64(8), uint16(1<<13), uint16(0), uint8(0), uint8(0), false, uint8(0), uint16(0xffff), uint16(1<<14), uint8(2))
	f.Add(int64(3), uint16(0), uint16(1000), uint8(9), uint8(2), true, uint8(5), uint16(1<<15), uint16(1<<13), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, loss, corrupt uint16, stallEvery, stallFor uint8, burst bool, maxCycles uint8, jitter, churn uint16, channels uint8) {
		cfg := Config{
			Seed:      seed,
			Loss:      float64(loss) / (1 << 16),
			Corrupt:   float64(corrupt) / (1 << 16),
			Jitter:    float64(jitter) / (1 << 17), // <= 0.5
			Churn:     float64(churn) / (1 << 16),
			MaxCycles: 1 + int(maxCycles%16),
		}
		if stallEvery > 0 && stallFor < stallEvery {
			cfg.StallEvery, cfg.StallFor = int(stallEvery), int(stallFor)
		}
		if burst {
			cfg.Burst = &BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8}
		}
		k := int(channels) % len(progs)
		replayMatchesWalk(t, progs[k], reqs[k], cfg)
	})
}

func fig2() *core.GroupSet {
	return core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}})
}

// TestReplayScheduleAwareMatchesMeasure: patient schedule-aware clients on
// a fault-free air reproduce the closed-form sampler's waits.
func TestReplayScheduleAwareMatchesMeasure(t *testing.T) {
	gs := fig2()
	for _, channels := range []int{1, 2, 3} {
		prog, _, err := pamad.Build(gs, channels)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := sim.Measure(prog, reqs)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Replay(prog, reqs, ReplayConfig{Mode: ScheduleAware})
		if err != nil {
			t.Fatal(err)
		}
		if slow.Served != len(reqs) || slow.Abandoned != 0 {
			t.Fatalf("N=%d: served %d abandoned %d, want %d/0", channels, slow.Served, slow.Abandoned, len(reqs))
		}
		if math.Abs(slow.AvgWait-fast.AvgWait) > 1e-9 {
			t.Errorf("N=%d: replayed wait %f != sampler wait %f", channels, slow.AvgWait, fast.AvgWait)
		}
		if math.Abs(slow.AvgDelay-fast.AvgDelay) > 1e-9 {
			t.Errorf("N=%d: replayed AvgD %f != sampler AvgD %f", channels, slow.AvgDelay, fast.AvgDelay)
		}
	}
}

// TestReplayPoissonStreamAcrossCycles: a Poisson arrival stream spanning
// many cycles replays to the closed-form sampler's waits.
func TestReplayPoissonStreamAcrossCycles(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GeneratePoissonRequests(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 400, Seed: 14},
		Rate:          0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if last := reqs[len(reqs)-1].Arrival; last <= float64(prog.Length()) {
		t.Fatalf("stream too short to span cycles: last arrival %f", last)
	}
	fast, err := sim.Measure(prog, reqs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Replay(prog, reqs, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Served != len(reqs) {
		t.Fatalf("served %d of %d", slow.Served, len(reqs))
	}
	if math.Abs(slow.AvgWait-fast.AvgWait) > 1e-9 {
		t.Errorf("replayed wait %f != sampler wait %f on a multi-cycle stream", slow.AvgWait, fast.AvgWait)
	}
}

// TestReplayScanningIsSlowerButComplete: blind scanners find every page,
// with waits at least as long as schedule-aware clients'.
func TestReplayScanningIsSlowerButComplete(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Replay(prog, reqs, ReplayConfig{Mode: ScheduleAware})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Replay(prog, reqs, ReplayConfig{Mode: Scanning})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Served != len(reqs) {
		t.Fatalf("scanning served %d of %d", scan.Served, len(reqs))
	}
	if scan.AvgWait < aware.AvgWait-1e-9 {
		t.Errorf("scanning wait %f beat schedule-aware %f", scan.AvgWait, aware.AvgWait)
	}
}

// TestReplayImpatience: with a tight abandonment threshold, exactly the
// requests whose wait would exceed it disappear into the on-demand
// channel, in time order.
func TestReplayImpatience(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 400, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sim.Measure(prog, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var abandonedAt []float64
	out, err := Replay(prog, reqs, ReplayConfig{
		Mode:         ScheduleAware,
		AbandonAfter: 1.0,
		Trace: func(ev sim.Event) {
			if ev.Kind == sim.EventAbandon {
				abandonedAt = append(abandonedAt, ev.Time)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Served+out.Abandoned != len(reqs) {
		t.Fatalf("served %d + abandoned %d != %d", out.Served, out.Abandoned, len(reqs))
	}
	wantAbandoned := int(fast.MissRatio*float64(len(reqs)) + 0.5)
	if out.Abandoned != wantAbandoned {
		t.Errorf("abandoned %d, want %d (the deadline-missing requests)", out.Abandoned, wantAbandoned)
	}
	if len(abandonedAt) != out.Abandoned {
		t.Errorf("traced %d abandon events for %d abandonments", len(abandonedAt), out.Abandoned)
	}
	for i := 1; i < len(abandonedAt); i++ {
		if abandonedAt[i] < abandonedAt[i-1] {
			t.Fatalf("abandonment %d at %f precedes its predecessor at %f", i, abandonedAt[i], abandonedAt[i-1])
		}
	}
	// Survivors were all served within their expected time.
	if out.MissRatio != 0 { //lint:ignore floateq exact zero when every late client abandoned
		t.Errorf("served requests have miss ratio %f, want 0", out.MissRatio)
	}
}

// TestReplayAbandonsAtTie: a client whose page airs exactly at its
// abandonment instant abandons.
func TestReplayAbandonsAtTie(t *testing.T) {
	prog, err := susc.BuildMinimal(fig2())
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	page := core.PageID(0)
	wait := a.NextAfter(page, 0.5)
	expect := float64(prog.GroupSet().TimeOf(page))
	var at []float64
	out, err := Replay(prog, []workload.Request{{Page: page, Arrival: 0.5}}, ReplayConfig{
		AbandonAfter: wait / expect,
		Trace: func(ev sim.Event) {
			if ev.Kind == sim.EventAbandon {
				at = append(at, ev.Time)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned != 1 || len(at) != 1 || at[0] != 0.5+wait { //lint:ignore floateq the deadline is the appearance's exact instant
		t.Fatalf("abandoned %d at %v, want 1 at %f", out.Abandoned, at, 0.5+wait)
	}
}

// TestReplayWithFrameLoss: under i.i.d. loss every patient client is still
// served, and no later than on a lossless air.
func TestReplayWithFrameLoss(t *testing.T) {
	gs := fig2()
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := replayUnder(t, prog, reqs, Config{Seed: 8, Loss: 0.2})
	if out.Served != len(reqs) {
		t.Fatalf("served %d of %d under loss", out.Served, len(reqs))
	}
	lossless, _ := replayUnder(t, prog, reqs, Config{})
	if out.AvgWait <= lossless.AvgWait {
		t.Errorf("lossy wait %f did not exceed lossless %f", out.AvgWait, lossless.AvgWait)
	}
}

// TestReplayWithSlotJitter: jitter delays every delivery by at most its
// bound, so patient clients all get served and the average wait moves by
// less than half a slot.
func TestReplayWithSlotJitter(t *testing.T) {
	gs := fig2()
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := replayUnder(t, prog, reqs, Config{})
	jit, _ := replayUnder(t, prog, reqs, Config{Seed: 2, Jitter: 0.4})
	if jit.Served != len(reqs) {
		t.Fatalf("jittered run served %d of %d", jit.Served, len(reqs))
	}
	if jit.AvgWait < base.AvgWait {
		t.Errorf("jitter shortened AvgWait: %f < %f", jit.AvgWait, base.AvgWait)
	}
	if jit.AvgWait > base.AvgWait+0.4 {
		t.Errorf("jitter exceeded its bound: %f > %f + 0.4", jit.AvgWait, base.AvgWait)
	}
}

// TestReplayUnderBurstLoss: schedule-aware clients recover from Gilbert-
// Elliott fading bursts — everyone is eventually served, and waits grow
// with the fade depth.
func TestReplayUnderBurstLoss(t *testing.T) {
	gs, err := core.Geometric(2, 2, []int{3, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 150, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	waitAt := func(lossBad float64) float64 {
		burst := &BurstConfig{GoodToBad: 0.4, BadToGood: 0.4, LossBad: lossBad}
		out, _ := replayUnder(t, prog, reqs, Config{Seed: 6, Burst: burst})
		if out.Served != len(reqs) {
			t.Fatalf("lossBad=%f: served %d of %d", lossBad, out.Served, len(reqs))
		}
		return out.AvgWait
	}
	if clean, faded := waitAt(0), waitAt(0.9); faded <= clean {
		t.Errorf("deep fades did not increase waits: %f vs %f", faded, clean)
	}
}

// TestReplayAccountsEveryClient: under heavy single-channel loss every
// client ends served, abandoned or Unserved at the give-up bound — none
// vanishes — and no client listens past MaxCycles cycles after its own
// arrival's cycle.
func TestReplayAccountsEveryClient(t *testing.T) {
	gs, err := core.Geometric(2, 2, []int{3, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxCycles    int
		abandonAfter float64
		wantUnserved bool
	}{
		{0, 0, false},
		{2, 0, true},
		{2, 3, true},
	} {
		p, err := NewPlan(Config{Seed: 1, Loss: 0.6, MaxCycles: tc.maxCycles}, prog.Channels(), prog.Length())
		if err != nil {
			t.Fatal(err)
		}
		out, err := Replay(prog, reqs, ReplayConfig{AbandonAfter: tc.abandonAfter, Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		if out.Served+out.Abandoned+out.Unserved != len(reqs) {
			t.Errorf("%+v: served %d + abandoned %d + unserved %d != %d",
				tc, out.Served, out.Abandoned, out.Unserved, len(reqs))
		}
		if got := out.Unserved > 0; got != tc.wantUnserved {
			t.Errorf("%+v: %d unserved", tc, out.Unserved)
		}
		if bound := p.MaxCycles() * prog.Length(); out.SlotsSimulated > bound {
			t.Errorf("%+v: listened through %d slots past the %d-slot bound", tc, out.SlotsSimulated, bound)
		}
	}
}

// TestReplayChurnDelaysClients: the plan's churn applies to replayed
// clients, so a deaf client waits for a later appearance.
func TestReplayChurnDelaysClients(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := replayUnder(t, prog, reqs, Config{})
	churned, _ := replayUnder(t, prog, reqs, Config{Seed: 3, Churn: 0.5})
	if churned.AvgWait <= clean.AvgWait {
		t.Errorf("churn did not lengthen waits: %f vs %f", churned.AvgWait, clean.AvgWait)
	}
}

// TestScanSweepSeesBurstLossToItsBound: a burst plan sized by SweepCycles
// covers a Scanning client's whole sweep, its last cycle included. Under
// a tape that loses every frame, no scanner is served; the default tape,
// which stops at MaxCycles+2 cycles, lets the sweep's last cycles through.
func TestScanSweepSeesBurstLossToItsBound(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 3, 40, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 6)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Burst: &BurstConfig{LossGood: 1}, MaxCycles: 2}
	sweep := SweepCycles(cfg, prog.Channels())
	if sweep <= cfg.MaxCycles+2 {
		t.Fatalf("sweep of %d cycles fits the default tape", sweep)
	}
	scan := func(cfg Config) *Outcome {
		p, err := NewPlan(cfg, prog.Channels(), prog.Length())
		if err != nil {
			t.Fatal(err)
		}
		out, err := Replay(prog, reqs, ReplayConfig{Mode: Scanning, Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	short := scan(cfg)
	if short.Served == 0 {
		t.Fatal("the default tape already covers the sweep's last cycle")
	}
	cfg.Horizon = sweep * prog.Length()
	p, err := NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		if !p.Lost(ch, cfg.Horizon-1) {
			t.Fatalf("channel %d airs the sweep's last slot", ch)
		}
	}
	if full := scan(cfg); full.Served != 0 || full.Unserved != len(reqs) {
		t.Fatalf("sized tape: served %d, unserved %d of %d", full.Served, full.Unserved, len(reqs))
	} else if full.SlotsSimulated != cfg.Horizon {
		t.Fatalf("scanners listened through %d slots, want the %d-slot sweep", full.SlotsSimulated, cfg.Horizon)
	}
}

func TestReplayValidation(t *testing.T) {
	gs := fig2()
	prog, _, err := mpb.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(nil, nil, ReplayConfig{}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Replay(prog, nil, ReplayConfig{Mode: ClientMode(7)}); err == nil {
		t.Error("unknown mode accepted")
	}
	for _, r := range []workload.Request{{Page: -1}, {Page: 0, Arrival: -1}, {Page: 0, Arrival: math.NaN()}, {Page: 0, Arrival: math.Inf(1)}} {
		if _, err := Replay(prog, []workload.Request{r}, ReplayConfig{}); err == nil {
			t.Errorf("request %+v accepted", r)
		}
	}
	other, err := NewPlan(Config{}, prog.Channels()+1, prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(prog, nil, ReplayConfig{Plan: other}); err == nil {
		t.Error("plan for another program accepted")
	}
	out, err := Replay(prog, nil, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Served != 0 || out.Requests != 0 {
		t.Error("empty run not zeroed")
	}
}

// TestReplayTracesClients: every client produces an arrive, a tune and a
// terminal (serve/abandon) event, in time order, and the trace renders.
func TestReplayTracesClients(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ClientMode{ScheduleAware, Scanning} {
		tracer, err := sim.NewRingTracer(10000)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Replay(prog, reqs, ReplayConfig{Mode: mode, AbandonAfter: 2.0, Trace: tracer.Record})
		if err != nil {
			t.Fatal(err)
		}
		arrives := map[int]int{}
		terminal := map[int]int{}
		prev := -1.0
		for _, e := range tracer.Events() {
			if e.Time < prev {
				t.Fatalf("mode %d: trace out of order at %v", mode, e)
			}
			prev = e.Time
			switch e.Kind {
			case sim.EventArrive:
				arrives[e.Client]++
			case sim.EventServe, sim.EventAbandon:
				terminal[e.Client]++
			case sim.EventTune:
			}
		}
		for i := range reqs {
			if arrives[i] != 1 || terminal[i] != 1 {
				t.Errorf("mode %d: client %d arrived %d times, ended %d times", mode, i, arrives[i], terminal[i])
			}
		}
		if out.Served+out.Abandoned != len(reqs) {
			t.Errorf("mode %d: accounting mismatch", mode)
		}
		if !strings.Contains(tracer.String(), "arrive") {
			t.Errorf("mode %d: trace does not render: %q", mode, tracer.String())
		}
	}
}
