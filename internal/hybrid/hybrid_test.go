package hybrid

import (
	"math"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/mpb"
	"tcsa/internal/ondemand"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

func TestRunValidation(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 3, 30, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, nil, Config{Air: chaos.ReplayConfig{AbandonAfter: 1}}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Run(prog, nil, Config{Air: chaos.ReplayConfig{AbandonAfter: 0}}); err == nil {
		t.Error("zero abandon threshold accepted")
	}
	if _, err := Run(prog, nil, Config{Air: chaos.ReplayConfig{AbandonAfter: 2}, DeadlineSlack: 1}); err == nil {
		t.Error("deadline slack below abandon threshold accepted")
	}
}

// TestValidProgramHasNoDefections: on a SUSC program every wait is within
// the expected time, so an impatience threshold of 1.0 never fires.
func TestValidProgramHasNoDefections(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 3, 30, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(prog, reqs, Config{
		Air:  chaos.ReplayConfig{AbandonAfter: 1.0},
		Pull: ondemand.Config{ServiceTime: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Air.Abandoned != 0 || rep.PullShare != 0 {
		t.Errorf("valid program produced %d defections", rep.Air.Abandoned)
	}
	if rep.Pull.Submitted != 0 {
		t.Errorf("pull server saw %d requests", rep.Pull.Submitted)
	}
	if rep.EndToEnd.N != 500 {
		t.Errorf("end-to-end covers %d requests, want 500", rep.EndToEnd.N)
	}
	if math.Abs(rep.EndToEnd.Mean-rep.Air.AvgWait) > 1e-9 {
		t.Errorf("end-to-end mean %f != air wait %f with no defections",
			rep.EndToEnd.Mean, rep.Air.AvgWait)
	}
}

// TestDefectorsAccounted: every request shows up exactly once — served or
// defected — and the end-to-end summary covers all of them.
func TestDefectorsAccounted(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 80, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 3) // scarce: defections guaranteed
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(prog, reqs, Config{
		Air:  chaos.ReplayConfig{AbandonAfter: 1.0},
		Pull: ondemand.Config{ServiceTime: 1.5, Discipline: ondemand.EDF},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Air.Served+rep.Air.Abandoned != len(reqs) {
		t.Fatalf("served %d + abandoned %d != %d", rep.Air.Served, rep.Air.Abandoned, len(reqs))
	}
	if rep.Air.Abandoned == 0 {
		t.Fatal("expected defections on a scarce program")
	}
	if rep.Pull.Submitted != rep.Air.Abandoned || rep.Pull.Completed != rep.Air.Abandoned {
		t.Errorf("pull handled %d/%d, want %d", rep.Pull.Submitted, rep.Pull.Completed, rep.Air.Abandoned)
	}
	if rep.EndToEnd.N != len(reqs) {
		t.Errorf("end-to-end covers %d, want %d", rep.EndToEnd.N, len(reqs))
	}
	wantShare := float64(rep.Air.Abandoned) / float64(len(reqs))
	if math.Abs(rep.PullShare-wantShare) > 1e-12 {
		t.Errorf("PullShare = %f, want %f", rep.PullShare, wantShare)
	}
	// A defector's end-to-end includes a pull response >= service time, so
	// the maximum must exceed the pure-broadcast maximum wait.
	if rep.EndToEnd.Max < rep.Pull.Response.Min {
		t.Errorf("end-to-end max %f below pull minimum %f", rep.EndToEnd.Max, rep.Pull.Response.Min)
	}
}

// TestPAMADShedsLessThanMPB: the paper's motivating comparison as a
// library-level assertion.
func TestPAMADShedsLessThanMPB(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 6, 300, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const channels = 8
	pProg, _, err := pamad.Build(gs, channels)
	if err != nil {
		t.Fatal(err)
	}
	mProg, _, err := mpb.Build(gs, channels)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Air: chaos.ReplayConfig{AbandonAfter: 1.5}, Pull: ondemand.Config{ServiceTime: 3, Discipline: ondemand.EDF}}
	pReqs, err := workload.GenerateRequests(gs, pProg.Length(), workload.RequestConfig{Count: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mReqs, err := workload.GenerateRequests(gs, mProg.Length(), workload.RequestConfig{Count: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(pProg, pReqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(mProg, mReqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.PullShare >= m.PullShare {
		t.Errorf("PAMAD pull share %f not below m-PB's %f", p.PullShare, m.PullShare)
	}
	if p.Pull.AvgResponse >= m.Pull.AvgResponse {
		t.Errorf("PAMAD pull response %f not below m-PB's %f", p.Pull.AvgResponse, m.Pull.AvgResponse)
	}
}

// TestDropAccountingExactlyOnce is the frame-loss accounting regression:
// under a deterministic fault plan, clients whose closed-form wait is
// within the impatience threshold still defect on the replayed air. The
// served set must come from the replay's serve events — reconstructing it
// from core.Analyze counted those clients twice (once as analytically
// "served", once as defectors).
func TestDropAccountingExactlyOnce(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 3, 30, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	// The server stalls every even slot. Page 0 (t=2) airs only on even
	// slots, so every page-0 client passes arrival + 1.0*2 and defects,
	// while the closed-form wait (fault-blind) stays within the threshold.
	// Pages 11 and 21 air on odd slots and are served.
	plan, err := chaos.NewPlan(chaos.Config{StallEvery: 2, StallFor: 1}, prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < prog.Length(); s += 2 {
		if prog.At(0, s) != 0 {
			t.Fatalf("page 0 does not air on even slot %d", s)
		}
	}
	reqs := []workload.Request{
		{Page: 0, Arrival: 0.5},
		{Page: 0, Arrival: 3},
		{Page: 0, Arrival: 7.25},
		{Page: 11, Arrival: 1},
		{Page: 21, Arrival: 2.5},
	}
	rep, err := Run(prog, reqs, Config{
		Air:  chaos.ReplayConfig{AbandonAfter: 1.0, Plan: plan},
		Pull: ondemand.Config{ServiceTime: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Air.Abandoned != 3 || rep.Air.Served != 2 {
		t.Fatalf("served %d abandoned %d, want 2/3", rep.Air.Served, rep.Air.Abandoned)
	}
	// The regression: the analytic reconstruction yielded N = 8 here
	// (3 defectors double-counted). Exactly-once accounting yields 5.
	if rep.EndToEnd.N != len(reqs) {
		t.Fatalf("end-to-end covers %d requests, want %d (defectors double-counted?)",
			rep.EndToEnd.N, len(reqs))
	}
	if rep.Pull.Completed != 3 {
		t.Fatalf("pull completed %d, want 3", rep.Pull.Completed)
	}
	// Defector latency = wait-until-defection (>= 2 slots) + pull response
	// (>= 2 slots service): the max must reflect the stalls, not the
	// fault-blind closed form (<= 2 slots on this program).
	if rep.EndToEnd.Max < 4 {
		t.Fatalf("end-to-end max %f too small for a defected client", rep.EndToEnd.Max)
	}
}

// TestOnlineTierRouting: with Config.Online set, defectors enter the
// slot-level online scheduler at their defection instants instead of the
// queueing model, and the end-to-end summary still covers every request
// exactly once.
func TestOnlineTierRouting(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 80, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 3) // scarce: defections guaranteed
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(prog, reqs, Config{
		Air: chaos.ReplayConfig{AbandonAfter: 1.0},
		Online: &online.Config{
			Policy: online.LWF,
			Split:  online.Split{Mode: online.SplitReserved, OnlineChannels: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Air.Abandoned == 0 {
		t.Fatal("expected defections on a scarce program")
	}
	if rep.Online == nil {
		t.Fatal("online result missing")
	}
	if rep.Online.Requests != rep.Air.Abandoned {
		t.Fatalf("online tier saw %d requests, want %d defectors", rep.Online.Requests, rep.Air.Abandoned)
	}
	if rep.Pull.Submitted != 0 {
		t.Fatalf("queueing model still saw %d requests with the online tier active", rep.Pull.Submitted)
	}
	if rep.EndToEnd.N != len(reqs) {
		t.Fatalf("end-to-end covers %d, want %d", rep.EndToEnd.N, len(reqs))
	}
	if got := len(rep.Online.Flows); got != rep.Air.Abandoned {
		t.Fatalf("per-defector flows %d, want %d (RecordFlows must be forced on)", got, rep.Air.Abandoned)
	}
	// Every defector burned at least its full patience on air first, so the
	// end-to-end max must be at least the online tier's max flow.
	if rep.EndToEnd.Max < rep.Online.MaxFlow {
		t.Fatalf("end-to-end max %f below online max flow %f", rep.EndToEnd.Max, rep.Online.MaxFlow)
	}
}
