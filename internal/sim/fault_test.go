package sim_test

import (
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

func plan(t *testing.T, prog *core.Program, cfg chaos.Config) *chaos.Plan {
	t.Helper()
	p, err := chaos.NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunUnderBurstLoss: schedule-aware clients recover from Gilbert-
// Elliott fading bursts — everyone is eventually served, and waits degrade
// monotonically with the fade depth.
func TestRunUnderBurstLoss(t *testing.T) {
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
		burst := &chaos.BurstConfig{GoodToBad: 0.4, BadToGood: 0.4, LossBad: lossBad}
		out, err := sim.Run(prog, reqs, sim.Config{
			Mode:  sim.ScheduleAware,
			Fault: plan(t, prog, chaos.Config{Seed: 6, Burst: burst}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Served != len(reqs) {
			t.Fatalf("lossBad=%f: served %d of %d", lossBad, out.Served, len(reqs))
		}
		return out.AvgWait
	}
	clean := waitAt(0)
	faded := waitAt(0.9)
	if faded <= clean {
		t.Errorf("deep fades did not increase waits: %f vs %f", faded, clean)
	}
}

// TestRunAccountsEveryClient: under heavy single-channel loss every
// client ends served, abandoned or Unserved at the give-up bound — none
// vanishes — and the bound is the plan's MaxCycles from the last
// arrival's cycle.
func TestRunAccountsEveryClient(t *testing.T) {
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
		p := plan(t, prog, chaos.Config{Seed: 1, Loss: 0.6, MaxCycles: tc.maxCycles})
		out, err := sim.Run(prog, reqs, sim.Config{
			Mode:         sim.ScheduleAware,
			AbandonAfter: tc.abandonAfter,
			Fault:        p,
		})
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
			t.Errorf("%+v: simulated %d slots past the %d-slot bound", tc, out.SlotsSimulated, bound)
		}
	}
}
