package estimator

import (
	"math"
	"math/rand"
	"testing"

	"tcsa/internal/core"
)

func TestNewAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(0, Config{}); err == nil {
		t.Error("0 pages accepted")
	}
	if _, err := NewAggregator(1, Config{Quantile: 2}); err == nil {
		t.Error("quantile > 1 accepted")
	}
	if _, err := NewAggregator(1, Config{Quantile: -0.5}); err == nil {
		t.Error("negative quantile accepted")
	}
	if _, err := NewAggregator(1, Config{ReservoirSize: -1}); err == nil {
		t.Error("negative reservoir accepted")
	}
	a, err := NewAggregator(3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.reservoir) != 3 {
		t.Errorf("pages = %d", len(a.reservoir))
	}
}

func TestReportValidation(t *testing.T) {
	a, _ := NewAggregator(2, Config{})
	if err := a.Report(5, 1); err == nil {
		t.Error("out-of-range page accepted")
	}
	if err := a.Report(0, 0); err == nil {
		t.Error("zero tolerance accepted")
	}
	if err := a.Report(0, -3); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// TestUntrustedTolerances: a client that claims it would wait forever
// must never receive the strictest deadline. NaN and +Inf are refused at
// Report; a finite but enormous tolerance saturates in ExpectedTimes
// instead of wrapping through int() to a one-slot expected time.
func TestUntrustedTolerances(t *testing.T) {
	tests := []struct {
		name      string
		tolerance float64
		wantErr   bool
		wantTime  int
	}{
		{"NaN", math.NaN(), true, 7},
		{"+Inf", math.Inf(1), true, 7},
		{"1e300", 1e300, false, math.MaxInt},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAggregator(1, Config{Quantile: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Report(0, tc.tolerance); (err != nil) != tc.wantErr {
				t.Fatalf("Report(%v) error = %v, want error %v", tc.tolerance, err, tc.wantErr)
			}
			times, err := a.ExpectedTimes(7)
			if err != nil {
				t.Fatal(err)
			}
			if times[0] != tc.wantTime {
				t.Errorf("expected time %d, want %d", times[0], tc.wantTime)
			}
		})
	}
}

func TestEstimateQuantile(t *testing.T) {
	a, _ := NewAggregator(1, Config{Quantile: 0.5})
	for _, tol := range []float64{10, 20, 30, 40, 50} {
		if err := a.Report(0, tol); err != nil {
			t.Fatal(err)
		}
	}
	est, ok := a.Estimate(0)
	if !ok || est != 30 {
		t.Errorf("median estimate = %f,%v want 30,true", est, ok)
	}
	if a.seen[0] != 5 {
		t.Errorf("reports = %d, want 5", a.seen[0])
	}
	if _, ok := a.Estimate(9); ok {
		t.Error("Estimate out of range ok")
	}
}

func TestEstimateConservative(t *testing.T) {
	// Quantile 0.1: the estimate tracks the demanding tail.
	a, _ := NewAggregator(1, Config{Quantile: 0.1, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		_ = a.Report(0, 50+rng.Float64()*100) // tolerances in [50, 150)
	}
	est, ok := a.Estimate(0)
	if !ok {
		t.Fatal("no estimate")
	}
	if est < 50 || est > 75 {
		t.Errorf("10th-percentile estimate = %f, want near 60", est)
	}
}

func TestReservoirBoundsMemory(t *testing.T) {
	a, _ := NewAggregator(1, Config{ReservoirSize: 16, Seed: 3})
	for i := 0; i < 10000; i++ {
		_ = a.Report(0, float64(i+1))
	}
	if got := len(a.reservoir[0]); got != 16 {
		t.Errorf("reservoir holds %d, want 16", got)
	}
	if a.seen[0] != 10000 {
		t.Errorf("reports = %d", a.seen[0])
	}
	// Reservoir sampling keeps a uniform sample: its mean should be near
	// the stream mean (5000), not stuck at the earliest values.
	var sum float64
	for _, v := range a.reservoir[0] {
		sum += v
	}
	if mean := sum / 16; mean < 2000 || mean > 8000 {
		t.Errorf("reservoir mean %f suggests biased sampling", mean)
	}
}

func TestExpectedTimesAndFallback(t *testing.T) {
	a, _ := NewAggregator(3, Config{Quantile: 0.0})
	_ = a.Report(0, 7.9)
	_ = a.Report(2, 0.4) // floors below 1 -> clamped to 1
	times, err := a.ExpectedTimes(42)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{7, 42, 1}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("times[%d] = %d, want %d", i, times[i], w)
		}
	}
	if _, err := a.ExpectedTimes(0); err == nil {
		t.Error("fallback 0 accepted")
	}
}

// TestGroupsPipeline: estimates flow into a valid geometric group set whose
// times never exceed what any demanding client reported.
func TestGroupsPipeline(t *testing.T) {
	const pages = 20
	a, _ := NewAggregator(pages, Config{Quantile: 0, Seed: 4}) // min = most conservative
	rng := rand.New(rand.NewSource(5))
	minTol := make([]float64, pages)
	for i := range minTol {
		minTol[i] = 1e18
	}
	for i := 0; i < 2000; i++ {
		page := core.PageID(rng.Intn(pages))
		tol := 2 + rng.Float64()*120
		_ = a.Report(page, tol)
		if tol < minTol[page] {
			minTol[page] = tol
		}
	}
	r, err := a.Groups(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Set.Pages() != pages {
		t.Fatalf("group set has %d pages, want %d", r.Set.Pages(), pages)
	}
	for i := 0; i < pages; i++ {
		if got := float64(r.NewTimes[i]); got > minTol[i] {
			t.Errorf("page %d: rearranged time %f exceeds strictest report %f", i, got, minTol[i])
		}
	}
}
