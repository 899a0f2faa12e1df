package chaos

import (
	"math"
	"testing"
)

// lossTrace probes a one-channel plan cfg describes over its first slots
// slots and reports, per slot, whether the frame there is lost.
func lossTrace(t *testing.T, cfg Config, slots int) []bool {
	t.Helper()
	cfg.Horizon = slots
	plan, err := NewPlan(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	lost := make([]bool, slots)
	for s := range lost {
		lost[s] = plan.Lost(0, s)
	}
	return lost
}

func lossRate(lost []bool) float64 {
	n := 0
	for _, l := range lost {
		if l {
			n++
		}
	}
	return float64(n) / float64(len(lost))
}

// TestUniformLoss: i.i.d. plan loss drops frames at the configured rate;
// rates outside [0, 1] are refused.
func TestUniformLoss(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1} {
		if _, err := NewPlan(Config{Loss: p}, 1, 4); err == nil {
			t.Errorf("loss probability %g accepted", p)
		}
	}
	if rate := lossRate(lossTrace(t, Config{Seed: 7, Loss: 0.3}, 100000)); math.Abs(rate-0.3) > 0.01 {
		t.Errorf("loss rate %f, want ~0.3", rate)
	}
}

// TestUniformLossDeterministic: one seed replays the same lost slots.
func TestUniformLossDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Loss: 0.5}
	a, b := lossTrace(t, cfg, 1000), lossTrace(t, cfg, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at slot %d", i)
		}
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	for _, b := range []BurstConfig{
		{GoodToBad: 2},                 // probability > 1
		{GoodToBad: 0.1, BadToGood: 0}, // absorbs in the bad state
	} {
		if _, err := NewPlan(Config{Burst: &b}, 1, 4); err == nil {
			t.Errorf("burst %+v accepted", b)
		}
	}
}

// TestGilbertElliottStationaryRate: the long-run burst loss rate matches
// the chain's stationary-distribution prediction.
func TestGilbertElliottStationaryRate(t *testing.T) {
	b := BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossGood: 0.01, LossBad: 0.8}
	piBad := b.GoodToBad / (b.GoodToBad + b.BadToGood)
	want := piBad*b.LossBad + (1-piBad)*b.LossGood
	if rate := lossRate(lossTrace(t, Config{Seed: 3, Burst: &b}, 400000)); math.Abs(rate-want) > 0.01 {
		t.Errorf("loss rate %f, want ~%f", rate, want)
	}
}

// TestGilbertElliottBursts: losses cluster — the conditional probability
// of losing frame k+1 given frame k was lost is far above the marginal.
func TestGilbertElliottBursts(t *testing.T) {
	b := BurstConfig{GoodToBad: 0.02, BadToGood: 0.2, LossBad: 0.9}
	lost := lossTrace(t, Config{Seed: 4, Burst: &b}, 200000)
	marginal := lossRate(lost)
	var afterLoss, lossAfterLoss int
	for i := 1; i < len(lost); i++ {
		if lost[i-1] {
			afterLoss++
			if lost[i] {
				lossAfterLoss++
			}
		}
	}
	conditional := float64(lossAfterLoss) / float64(afterLoss)
	if conditional < 3*marginal {
		t.Errorf("conditional loss %f not much above marginal %f — no burstiness", conditional, marginal)
	}
}
