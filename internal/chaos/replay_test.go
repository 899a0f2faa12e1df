package chaos

import (
	"fmt"
	"math"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// Replay drives the full discrete-event simulation (schedule-aware
// clients on the airwave substrate) through the fault plan cfg describes,
// the plan itself serving as the air's fault source. Where RunParallel
// walks each request through the plan, Replay exercises the actual
// retune/re-plan client machinery under the identical, seed-replayable
// fault schedule.
func Replay(prog *core.Program, reqs []workload.Request, cfg Config) (*sim.Outcome, *Plan, error) {
	plan, err := NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		return nil, nil, err
	}
	out, err := sim.Run(prog, reqs, sim.Config{Mode: sim.ScheduleAware, Fault: plan})
	if err != nil {
		return nil, nil, err
	}
	return out, plan, nil
}

// replayMatchesWalk checks the cross-engine identity for first-cycle
// arrivals under a jitter- and churn-free plan: the event simulation and
// the walk leave the same clients unserved, and the simulation's served
// waits plus MaxCycles cycles per unserved client sum to the walk's total
// wait.
func replayMatchesWalk(t *testing.T, prog *core.Program, reqs []workload.Request, cfg Config) {
	t.Helper()
	des, plan, err := Replay(prog, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := Run(core.Analyze(prog), workload.SliceStream(reqs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(des.Unserved) != walk.Unserved {
		t.Fatalf("%+v: event simulation left %d unserved, walk %d", cfg, des.Unserved, walk.Unserved)
	}
	if des.Served+des.Unserved != len(reqs) {
		t.Fatalf("%+v: served %d + unserved %d != %d", cfg, des.Served, des.Unserved, len(reqs))
	}
	giveUp := float64(plan.MaxCycles() * prog.Length())
	got := des.AvgWait*float64(des.Served) + float64(des.Unserved)*giveUp
	want := walk.AvgWait * float64(walk.Requests)
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%+v: event simulation total wait %.12g, walk %.12g", cfg, got, want)
	}
}

// TestReplayMatchesWalk: on PAMAD programs of 1, 3 and 7 channels, the
// event-driven air and the chaos walk agree client for client under every
// jitter-free channel-side fault: loss, corruption with stalls, bursts,
// and loss heavy enough that clients give up at a small MaxCycles.
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
		for _, cfg := range plans {
			t.Run(fmt.Sprintf("N=%d/seed=%d", channels, cfg.Seed), func(t *testing.T) {
				replayMatchesWalk(t, prog, reqs, cfg)
			})
		}
	}
}

// FuzzReplayMatchesWalk fuzzes the cross-engine identity over arbitrary
// jitter- and churn-free plans on one channel, where a client never has
// to retune and so hears exactly the appearances the walk charges.
func FuzzReplayMatchesWalk(f *testing.F) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 60, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 1)
	if err != nil {
		f.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint16(0), uint16(0), uint8(0), uint8(0), false, uint8(0))
	f.Add(int64(5), uint16(1<<14), uint16(3000), uint8(16), uint8(3), true, uint8(3))
	f.Add(int64(-2), uint16(0xfff0), uint16(0), uint8(0), uint8(0), false, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, loss, corrupt uint16, stallEvery, stallFor uint8, burst bool, maxCycles uint8) {
		cfg := Config{
			Seed:      seed,
			Loss:      float64(loss) / (1 << 16),
			Corrupt:   float64(corrupt) / (1 << 16),
			MaxCycles: 1 + int(maxCycles%16),
		}
		if stallEvery > 0 && stallFor < stallEvery {
			cfg.StallEvery, cfg.StallFor = int(stallEvery), int(stallFor)
		}
		if burst {
			cfg.Burst = &BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8}
		}
		replayMatchesWalk(t, prog, reqs, cfg)
	})
}
