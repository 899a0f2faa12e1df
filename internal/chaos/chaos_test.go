package chaos

import (
	"math"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

func testGroupSet(t *testing.T) *core.GroupSet {
	t.Helper()
	gs, err := core.Geometric(4, 2, []int{3, 5, 9})
	if err != nil {
		t.Fatalf("Geometric: %v", err)
	}
	return gs
}

func suscProgram(t *testing.T) (*core.GroupSet, *core.Program) {
	t.Helper()
	gs := testGroupSet(t)
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatalf("susc.Build: %v", err)
	}
	return gs, prog
}

func uniformStream(t *testing.T, gs *core.GroupSet, cycle, count int, seed int64) workload.Stream {
	t.Helper()
	s, err := workload.NewStream(gs, cycle, workload.RequestConfig{
		Count: count, Seed: seed, Choice: workload.UniformPages,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	return s
}

func poissonStream(t *testing.T, gs *core.GroupSet, count int, seed int64) workload.Stream {
	t.Helper()
	s, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: count, Seed: seed},
		Rate:          2.0,
	})
	if err != nil {
		t.Fatalf("NewPoissonStream: %v", err)
	}
	return s
}

// eqBits asserts float bit equality — tolerances would defeat the whole
// point of the determinism contract.
func eqBits(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: %v (%#x) != %v (%#x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func eqSummary(t *testing.T, name string, got, want stats.Summary) {
	t.Helper()
	if got.N != want.N {
		t.Errorf("%s.N: %d != %d", name, got.N, want.N)
	}
	eqBits(t, name+".Mean", got.Mean, want.Mean)
	eqBits(t, name+".StdDev", got.StdDev, want.StdDev)
	eqBits(t, name+".Min", got.Min, want.Min)
	eqBits(t, name+".Max", got.Max, want.Max)
	eqBits(t, name+".P50", got.P50, want.P50)
	eqBits(t, name+".P95", got.P95, want.P95)
	eqBits(t, name+".P99", got.P99, want.P99)
}

func eqMetrics(t *testing.T, got, want *sim.Metrics) {
	t.Helper()
	if got.Requests != want.Requests {
		t.Errorf("Requests: %d != %d", got.Requests, want.Requests)
	}
	eqBits(t, "AvgWait", got.AvgWait, want.AvgWait)
	eqBits(t, "AvgDelay", got.AvgDelay, want.AvgDelay)
	eqBits(t, "MissRatio", got.MissRatio, want.MissRatio)
	eqSummary(t, "Wait", got.Wait, want.Wait)
	eqSummary(t, "Delay", got.Delay, want.Delay)
}

// TestZeroFaultMatchesMeasureStream is the acceptance criterion: with no
// faults configured, the chaos engine's walk yields bit-for-bit the
// sim.MeasureStream metrics — on sorted and unsorted streams, on SUSC and
// PAMAD programs.
func TestZeroFaultMatchesMeasureStream(t *testing.T) {
	gs, suscProg := suscProgram(t)
	pamadProg, _, err := pamad.Build(gs, gs.MinChannels()-1)
	if err != nil {
		t.Fatalf("pamad.Build: %v", err)
	}
	progs := map[string]*core.Program{"susc": suscProg, "pamad": pamadProg}
	for name, prog := range progs {
		a := core.Analyze(prog)
		streams := map[string]workload.Stream{
			"uniform": uniformStream(t, gs, prog.Length(), 5000, 42),
			"poisson": poissonStream(t, gs, 5000, 43),
		}
		for sname, stream := range streams {
			t.Run(name+"/"+sname, func(t *testing.T) {
				want, err := sim.MeasureParallel(a, stream, 3)
				if err != nil {
					t.Fatalf("MeasureParallel: %v", err)
				}
				got, err := RunParallel(a, stream, Config{Seed: 7}, 3)
				if err != nil {
					t.Fatalf("RunParallel: %v", err)
				}
				eqMetrics(t, &got.Metrics, want)
				if got.Retries != 0 || got.Unserved != 0 {
					t.Errorf("zero-fault ledger not empty: %+v", got.Ledger)
				}
				if got.EffectiveLoss != 0 { //lint:ignore floateq exact zero by construction
					t.Errorf("zero-fault EffectiveLoss = %g", got.EffectiveLoss)
				}
			})
		}
	}
}

// TestWorkerCountInvariance pins the second acceptance criterion: the
// whole Result — metrics, ledger and trace digest — is identical at any
// worker count, faults on or off.
func TestWorkerCountInvariance(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	// > 1 shard so the parallel path is actually exercised.
	stream := uniformStream(t, gs, prog.Length(), 3*workload.ShardSize/2, 11)
	cfgs := map[string]Config{
		"zero": {Seed: 1},
		"faulty": {
			Seed: 1, Loss: 0.2, Corrupt: 0.05, Churn: 0.1, Jitter: 0.3,
			StallEvery: 50, StallFor: 3,
			Burst: &BurstConfig{GoodToBad: 0.05, BadToGood: 0.3, LossBad: 0.9},
		},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			base, err := RunParallel(a, stream, cfg, 1)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			for _, workers := range []int{2, 4, 8} {
				got, err := RunParallel(a, stream, cfg, workers)
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				eqMetrics(t, &got.Metrics, &base.Metrics)
				if got.Ledger != base.Ledger {
					t.Errorf("%d workers: ledger %+v != %+v", workers, got.Ledger, base.Ledger)
				}
				if got.TraceDigest != base.TraceDigest {
					t.Errorf("%d workers: digest %#x != %#x", workers, got.TraceDigest, base.TraceDigest)
				}
				eqBits(t, "EffectiveLoss", got.EffectiveLoss, base.EffectiveLoss)
			}
		})
	}
}

// TestSeedReplay: the same seed replays the same run; a different seed
// produces a different fault pattern.
func TestSeedReplay(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 4000, 3)
	cfg := Config{Seed: 99, Loss: 0.25}
	r1, err := RunParallel(a, stream, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(a, stream, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TraceDigest != r2.TraceDigest {
		t.Errorf("same seed, digests %#x != %#x", r1.TraceDigest, r2.TraceDigest)
	}
	eqMetrics(t, &r2.Metrics, &r1.Metrics)

	cfg.Seed = 100
	r3, err := RunParallel(a, stream, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3.TraceDigest == r1.TraceDigest {
		t.Errorf("different seeds replayed the same digest %#x", r1.TraceDigest)
	}
}

// TestZeroLossValidProgramMissFree closes the loop with the conformance
// oracle: a SUSC-valid program under zero faults records zero deadline
// misses.
func TestZeroLossValidProgramMissFree(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 20000, 5)
	res, err := RunParallel(a, stream, Config{Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.MissFreeLaw(prog, res.Misses); err != nil {
		t.Error(err)
	}
	if res.MissRatio != 0 { //lint:ignore floateq exact zero is the law under test
		t.Errorf("MissRatio = %g on a valid program with no faults", res.MissRatio)
	}
}

// TestZeroFaultMaxCyclesBound pins that MaxCycles bounds fault-free
// walks too: at MaxCycles 1 exactly the requests whose arrival falls after
// their page's last appearance in the cycle give up, each waiting one
// full cycle, and the rest wait as in sim.MeasureStream.
func TestZeroFaultMaxCyclesBound(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 5000, 8)
	res, err := RunParallel(a, stream, Config{Seed: 1, MaxCycles: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	L := float64(prog.Length())
	var wrapped int64
	var sum float64
	cur := stream.NewCursor()
	cur.Seek(0)
	var r workload.Request
	for cur.Next(&r) {
		cols := a.Index().Columns(r.Page)
		u := math.Mod(r.Arrival, L)
		if float64(cols[len(cols)-1]) < u {
			wrapped++
			sum += L
		} else {
			sum += a.NextAfter(r.Page, u)
		}
	}
	if wrapped == 0 {
		t.Fatal("no arrival falls after its page's last appearance; the case does not reach the bound")
	}
	if res.Unserved != wrapped || res.Retries != 0 {
		t.Errorf("ledger %+v, want %d unserved and no retries", res.Ledger, wrapped)
	}
	if want := sum / float64(stream.Count()); math.Abs(res.AvgWait-want) > 1e-9 {
		t.Errorf("AvgWait = %v, want %v", res.AvgWait, want)
	}
}

// TestFaultClassesLedger: each fault class, enabled alone, registers in
// its own ledger column and nowhere else.
func TestFaultClassesLedger(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 5000, 17)
	cases := []struct {
		name string
		cfg  Config
		col  func(*Result) int64
	}{
		{"loss", Config{Seed: 2, Loss: 0.3}, func(r *Result) int64 { return r.LostDeliveries }},
		{"burst", Config{Seed: 2, Burst: &BurstConfig{GoodToBad: 0.1, BadToGood: 0.2, LossBad: 1}},
			func(r *Result) int64 { return r.LostDeliveries }},
		{"corrupt", Config{Seed: 2, Corrupt: 0.3}, func(r *Result) int64 { return r.CorruptSkips }},
		{"stall", Config{Seed: 2, StallEvery: 10, StallFor: 2}, func(r *Result) int64 { return r.StallSkips }},
		{"churn", Config{Seed: 2, Churn: 0.3}, func(r *Result) int64 { return r.ChurnSkips }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunParallel(a, stream, tc.cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.col(res) == 0 {
				t.Errorf("fault class did not register: %+v", res.Ledger)
			}
			if res.Retries != res.LostDeliveries+res.CorruptSkips+res.StallSkips+res.ChurnSkips {
				t.Errorf("Retries %d != sum of skip classes in %+v", res.Retries, res.Ledger)
			}
		})
	}
}

// TestLossDegradesWaits: injected loss can only lengthen waits relative
// to the fault-free run, and total loss exhausts the give-up bound.
func TestLossDegradesWaits(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 5000, 23)
	base, err := RunParallel(a, stream, Config{Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunParallel(a, stream, Config{Seed: 3, Loss: 0.4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.AvgWait <= base.AvgWait {
		t.Errorf("40%% loss did not raise AvgWait: %g <= %g", lossy.AvgWait, base.AvgWait)
	}
	if lossy.Misses == 0 {
		t.Error("40% loss on a minimum-channel program caused no deadline misses")
	}

	dead, err := RunParallel(a, stream, Config{Seed: 3, Loss: 1, MaxCycles: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int(dead.Unserved) != stream.Count() {
		t.Errorf("total loss: %d unserved of %d", dead.Unserved, stream.Count())
	}
	wantWait := float64(4) * float64(prog.Length())
	eqBits(t, "give-up wait", dead.Wait.Max, wantWait)
}

// TestJitterBoundsWait: jitter adds at most Jitter slots to any wait.
func TestJitterBoundsWait(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 5000, 29)
	base, err := RunParallel(a, stream, Config{Seed: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jit, err := RunParallel(a, stream, Config{Seed: 4, Jitter: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if jit.AvgWait < base.AvgWait {
		t.Errorf("jitter shortened AvgWait: %g < %g", jit.AvgWait, base.AvgWait)
	}
	if jit.AvgWait > base.AvgWait+0.5 {
		t.Errorf("jitter added more than its bound: %g > %g + 0.5", jit.AvgWait, base.AvgWait)
	}
}

// TestReplanDegradation: under heavy loss on a minimum-channel program
// the degradation path re-runs PAMAD at the observed effective capacity.
func TestReplanDegradation(t *testing.T) {
	gs, prog := suscProgram(t)
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 1000, 31)
	res, err := RunParallel(a, stream, Config{Seed: 5, Loss: 0.5, Replan: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveLoss < 0.4 || res.EffectiveLoss > 0.6 {
		t.Fatalf("EffectiveLoss = %g for a 0.5 loss plan", res.EffectiveLoss)
	}
	if res.Replan == nil {
		t.Fatal("no Replan despite degraded capacity")
	}
	if res.Replan.EffectiveChannels >= prog.Channels() {
		t.Errorf("EffectiveChannels %d not below nominal %d",
			res.Replan.EffectiveChannels, prog.Channels())
	}
	// The degraded schedule must itself satisfy the placement law.
	dprog, dres, err := pamad.Build(gs, res.Replan.EffectiveChannels)
	if err != nil {
		t.Fatalf("rebuilding degraded schedule: %v", err)
	}
	if err := conformance.SpillAccounting(dprog, dres.Frequencies, conformance.PlacementCounts(dres.Placement)); err != nil {
		t.Errorf("degraded schedule violates placement law: %v", err)
	}
	if dres.MajorCycle != res.Replan.MajorCycle {
		t.Errorf("Replan.MajorCycle %d != pamad rebuild %d", res.Replan.MajorCycle, dres.MajorCycle)
	}
	// The resize rides the incremental replan engine: a channel change is
	// always a rebuild, and the cell accounting must match the nominal and
	// degraded transmission totals.
	if res.Replan.DeltaKind != "rebuild" {
		t.Errorf("DeltaKind = %q, want \"rebuild\" for a channel resize", res.Replan.DeltaKind)
	}
	nomS, _, err := pamad.Frequencies(gs, prog.Channels())
	if err != nil {
		t.Fatal(err)
	}
	if want := nomS.TotalSlots(gs); res.Replan.ClearedCells != want {
		t.Errorf("ClearedCells = %d, want nominal F=%d", res.Replan.ClearedCells, want)
	}
	if want := dres.Frequencies.TotalSlots(gs); res.Replan.PlacedCells != want {
		t.Errorf("PlacedCells = %d, want degraded F=%d", res.Replan.PlacedCells, want)
	}

	clean, err := RunParallel(a, stream, Config{Seed: 5, Replan: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Replan != nil {
		t.Error("fault-free run produced a degradation Replan")
	}
}

// TestReplayServesClients drives the per-client replay through the plan:
// fault-free, every client is served; under loss, every client is either
// served or unserved at the give-up bound — none lost by the machinery —
// and the unserved are exactly the clients RunParallel gives up on.
func TestReplayServesClients(t *testing.T) {
	gs, prog := suscProgram(t)
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{
		Count: 200, Seed: 37, Choice: workload.UniformPages,
	})
	if err != nil {
		t.Fatalf("GenerateRequests: %v", err)
	}
	out, _ := replayUnder(t, prog, reqs, Config{Seed: 6})
	if out.Served != len(reqs) || out.Abandoned != 0 {
		t.Errorf("fault-free replay: served %d, abandoned %d of %d",
			out.Served, out.Abandoned, len(reqs))
	}
	if out.MissRatio != 0 { //lint:ignore floateq exact zero on a valid program
		t.Errorf("fault-free replay MissRatio = %g", out.MissRatio)
	}

	lossyCfg := Config{Seed: 6, Loss: 0.6, MaxCycles: 2}
	lossy, _ := replayUnder(t, prog, reqs, lossyCfg)
	if lossy.Served+lossy.Abandoned+lossy.Unserved != len(reqs) {
		t.Errorf("lossy replay lost clients: served %d + abandoned %d + unserved %d != %d",
			lossy.Served, lossy.Abandoned, lossy.Unserved, len(reqs))
	}
	walk, err := RunParallel(core.Analyze(prog), workload.SliceStream(reqs), lossyCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Unserved == 0 || int64(lossy.Unserved) != walk.Unserved {
		t.Errorf("lossy replay left %d unserved, the walk %d", lossy.Unserved, walk.Unserved)
	}
	if lossy.Served > 0 && lossy.AvgWait < out.AvgWait {
		t.Errorf("loss shortened the replay's AvgWait: %g < %g", lossy.AvgWait, out.AvgWait)
	}
}

// TestConfigValidate rejects each malformed knob.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Loss: -0.1},
		{Loss: 1.5},
		{Corrupt: 2},
		{Churn: math.NaN()},
		{Jitter: 0.6},
		{Jitter: -0.1},
		{StallEvery: 5, StallFor: 5},
		{StallEvery: -1},
		{MaxCycles: -2},
		{Horizon: -1},
		{Burst: &BurstConfig{GoodToBad: 1.2}},
		{Burst: &BurstConfig{GoodToBad: 0.5, BadToGood: 0}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if (Config{}).Active() {
		t.Error("zero config reports Active")
	}
}

// TestConfigValidateNamesFirstField: with several bad fields, Validate
// names the first in declaration order on every call, for the top-level
// probabilities and for the burst chain alike.
func TestConfigValidateNamesFirstField(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Loss: 2, Corrupt: 2, Churn: 2}, "chaos: Loss probability 2 outside [0, 1]"},
		{Config{Corrupt: 2, Churn: 2}, "chaos: Corrupt probability 2 outside [0, 1]"},
		{Config{Burst: &BurstConfig{GoodToBad: 2, BadToGood: 2, LossGood: 2, LossBad: 2}},
			"chaos: burst GoodToBad probability 2 outside [0, 1]"},
	}
	for _, tc := range cases {
		for i := 0; i < 200; i++ {
			if err := tc.cfg.Validate(); err == nil || err.Error() != tc.want {
				t.Fatalf("call %d: Validate() = %v, want %q", i, err, tc.want)
			}
		}
	}
}

// TestDegradationTransitionBound closes the loop between the chaos
// degradation path and the live-transition machinery: flipping from the
// nominal PAMAD schedule to the loss-degraded one must keep every page's
// splice wait within replan.SpliceBounds, checked by the independent
// conformance replay. Page identities are stable across a channel resize,
// so the item universe is the identity map.
func TestDegradationTransitionBound(t *testing.T) {
	gs, prog := suscProgram(t)
	eng, err := replan.New(gs, prog.Channels())
	if err != nil {
		t.Fatal(err)
	}
	nominal := eng.Snapshot()
	a := core.Analyze(prog)
	stream := uniformStream(t, gs, prog.Length(), 1000, 31)
	res, err := RunParallel(a, stream, Config{Seed: 5, Loss: 0.5, Replan: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replan == nil {
		t.Fatal("no Replan despite degraded capacity")
	}
	if _, err := eng.SetChannels(res.Replan.EffectiveChannels); err != nil {
		t.Fatal(err)
	}
	degraded := eng.Snapshot()
	ids := make([]core.PageID, gs.Pages())
	for i := range ids {
		ids[i] = core.PageID(i)
	}
	bounds, err := replan.SpliceBounds(nominal, degraded, ids, ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := conformance.TransitionBound(nominal, degraded, ids, ids, bounds); err != nil {
		t.Errorf("degradation transition exceeds SpliceBounds: %v", err)
	}
}
