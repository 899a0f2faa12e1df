package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testSketch returns a sketch shaped like the measurement engine's: slot
// waits in (lo, hi] at 1% relative accuracy.
func testSketch(t testing.TB) *Sketch {
	t.Helper()
	s, err := NewSketch(1e-3, 4096, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSketchValidation(t *testing.T) {
	bad := []struct{ lo, hi, alpha float64 }{
		{0, 1, 0.01},
		{-1, 1, 0.01},
		{1, 1, 0.01},
		{2, 1, 0.01},
		{1, 2, 0},
		{1, 2, 1},
		{1, 2, -0.5},
		{math.NaN(), 1, 0.01},
		{1, math.Inf(1), 0.01},
	}
	for _, tc := range bad {
		if _, err := NewSketch(tc.lo, tc.hi, tc.alpha); err == nil {
			t.Errorf("NewSketch(%g, %g, %g) accepted", tc.lo, tc.hi, tc.alpha)
		}
	}
}

func TestSketchEmpty(t *testing.T) {
	s := testSketch(t)
	if s.N() != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty sketch not zeroed")
	}
	sum := s.Summary()
	if sum.N != 0 || sum.P99 != 0 {
		t.Errorf("empty Summary = %+v", sum)
	}
}

func TestSketchZeroHeavyStream(t *testing.T) {
	// Delay streams are mostly exact zeros; the zero bucket must carry
	// them and the low quantiles must report 0 exactly.
	s := testSketch(t)
	for i := 0; i < 90; i++ {
		s.Add(0)
	}
	for i := 0; i < 10; i++ {
		s.Add(100)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Errorf("P50 of zero-heavy stream = %g, want 0", q)
	}
	if q := s.Quantile(0.99); q < 100/1.03 || q > 100*1.03 {
		t.Errorf("P99 = %g, want ~100", q)
	}
	if mo := s.moments; mo.Max() != 100 {
		t.Errorf("Max = %g", mo.Max())
	}
}

func TestSketchClampsAboveRange(t *testing.T) {
	s := testSketch(t)
	s.Add(1e9) // far above hi: clamps into the last bucket
	if s.N() != 1 {
		t.Fatal("observation lost")
	}
	// Quantile clamps into [Min, Max], so even the clamped bucket reports
	// the true (single) observation.
	if q := s.Quantile(1); q != 1e9 {
		t.Errorf("Quantile(1) = %g, want 1e9 (clamped to Max)", q)
	}
	if !strings.Contains(s.String(), "n=1") {
		t.Errorf("String() = %q", s.String())
	}
}

// TestSketchAddBinMatchesAdd pins the split Partial-style callers rely on:
// a sketch fed by AddBin and read through SummaryOf(o), with o folding the
// same values, equals an Add-fed sketch's Summary bit for bit, on values
// at or below lo, inside the range and above hi. The lone value and the
// above-hi cluster sit in one bucket whose midpoint lies outside the
// sample, so they exercise the [Min, Max] clamp.
func TestSketchAddBinMatchesAdd(t *testing.T) {
	cases := map[string][]float64{
		"at-or-below-lo": {0, 1e-3, 5e-4, 0},
		"lone-in-range":  {3.3},
		"in-range":       {0.5, 7.25, 7.26, 100, 2048, 1e-3, 0},
		"above-hi":       {5000, 1e6, 1e9},
		"mixed":          {0, 1e-4, 42, 4096, 4096.5, 1e7, 0.002},
	}
	for name, xs := range cases {
		added, binned := testSketch(t), testSketch(t)
		var o Online
		for _, x := range xs {
			added.Add(x)
			binned.AddBin(x)
			o.Add(x)
		}
		if binned.N() != 0 {
			t.Errorf("%s: AddBin folded moments: N = %d", name, binned.N())
		}
		want, got := added.Summary(), binned.SummaryOf(o)
		if got.N != want.N || !sameBits(
			[]float64{got.Mean, got.StdDev, got.Min, got.P50, got.P95, got.P99, got.Max},
			[]float64{want.Mean, want.StdDev, want.Min, want.P50, want.P95, want.P99, want.Max}) {
			t.Errorf("%s: AddBin+SummaryOf = %+v, Add+Summary = %+v", name, got, want)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// checkQuantiles asserts the sketch contract against the exact sample: the
// estimate lies within one bucket (a factor of gamma) of the exact order
// statistics surrounding rank p*(n-1), with values <= lo reporting as 0.
func checkQuantiles(t *testing.T, s *Sketch, xs []float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// edge is the upper edge of the last bucket; stats beyond it clamp into
	// that bucket and only promise [cap/gamma, Max].
	edge := s.lo * math.Pow(s.gamma, float64(len(s.bins)))
	mo := s.moments
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		got := s.Quantile(p)
		rank := int(math.Round(p * float64(len(sorted)-1)))
		stat := sorted[rank]
		if stat <= s.lo {
			if got != 0 {
				t.Errorf("Quantile(%g) = %g for sub-resolution stat %g, want 0", p, got, stat)
			}
			continue
		}
		if stat > edge {
			if got < edge/s.gamma-1e-12 || got > mo.Max() {
				t.Errorf("Quantile(%g) = %g for over-range stat %g, want within [%g, %g]",
					p, got, stat, edge/s.gamma, mo.Max())
			}
			continue
		}
		lo, hi := stat/s.gamma-1e-12, stat*s.gamma+1e-12
		if got < lo || got > hi {
			t.Errorf("Quantile(%g) = %g outside one bucket of exact stat %g [%g, %g]",
				p, got, stat, lo, hi)
		}
	}
}

func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		s := testSketch(t)
		n := 1 + rng.Intn(3000)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(3) {
			case 0:
				xs[i] = 0 // exact zero (delay streams)
			case 1:
				xs[i] = rng.Float64() * 4000 // uniform over the range
			default:
				xs[i] = math.Exp(rng.Float64()*8 - 2) // log-uniform tail
			}
			s.Add(xs[i])
		}
		checkQuantiles(t, s, xs)
	}
}

// TestSketchMergeMatchesSequential: splitting a stream across sketches and
// merging reproduces the single-sketch buckets exactly and the moments up
// to rounding, regardless of merge order.
func TestSketchMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all, a, b, c := testSketch(t), testSketch(t), testSketch(t), testSketch(t)
	parts := []*Sketch{a, b, c}
	for i := 0; i < 5000; i++ {
		x := math.Abs(rng.NormFloat64()) * 50
		all.Add(x)
		parts[i%3].Add(x)
	}
	// Merge in two different orders into fresh copies.
	ab, ba := testSketch(t), testSketch(t)
	for _, src := range []*Sketch{a, b, c} {
		if err := ab.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []*Sketch{c, b, a} {
		if err := ba.Merge(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*Sketch{ab, ba} {
		if m.zero != all.zero {
			t.Fatalf("zero bucket %d, want %d", m.zero, all.zero)
		}
		for i := range m.bins {
			if m.bins[i] != all.bins[i] {
				t.Fatalf("bin %d = %d, want %d", i, m.bins[i], all.bins[i])
			}
		}
		mo, ao := m.moments, all.moments
		if mo.N() != ao.N() || mo.Min() != ao.Min() || mo.Max() != ao.Max() {
			t.Fatalf("moments N/Min/Max drifted: %v vs %v", mo, ao)
		}
		if math.Abs(mo.Mean()-ao.Mean()) > 1e-9*math.Abs(ao.Mean()) {
			t.Errorf("merged mean %g, sequential %g", mo.Mean(), ao.Mean())
		}
		if math.Abs(mo.StdDev()-ao.StdDev()) > 1e-6*ao.StdDev() {
			t.Errorf("merged stddev %g, sequential %g", mo.StdDev(), ao.StdDev())
		}
	}
	// Bucket counts are integers, so the two merge orders agree exactly —
	// and therefore so do the quantiles.
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if ab.Quantile(p) != ba.Quantile(p) {
			t.Errorf("merge order changed Quantile(%g): %g vs %g", p, ab.Quantile(p), ba.Quantile(p))
		}
	}
}

func TestSketchMergeIncompatible(t *testing.T) {
	a := testSketch(t)
	b, err := NewSketch(1e-3, 8192, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Error("incompatible layouts merged")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge errored: %v", err)
	}
}

// FuzzSketchQuantile drives randomized streams through the sketch and
// checks the one-bucket quantile bound plus merge/sequential agreement.
func FuzzSketchQuantile(f *testing.F) {
	f.Add(int64(1), uint16(100))
	f.Add(int64(99), uint16(2048))
	f.Add(int64(-7), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%4096 + 1
		whole, left, right := testSketch(t), testSketch(t), testSketch(t)
		xs := make([]float64, count)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = rng.Float64() * 1e-3 // sub-resolution
			default:
				xs[i] = math.Exp(rng.Float64()*16 - 7) // spans the bucket range
			}
			whole.Add(xs[i])
			if i%2 == 0 {
				left.Add(xs[i])
			} else {
				right.Add(xs[i])
			}
		}
		checkQuantiles(t, whole, xs)
		if err := left.Merge(right); err != nil {
			t.Fatal(err)
		}
		if left.N() != whole.N() || left.zero != whole.zero {
			t.Fatalf("merge lost observations: %d/%d vs %d/%d", left.N(), left.zero, whole.N(), whole.zero)
		}
		for i := range left.bins {
			if left.bins[i] != whole.bins[i] {
				t.Fatalf("merged bin %d = %d, sequential %d", i, left.bins[i], whole.bins[i])
			}
		}
		lm, wm := left.moments, whole.moments
		if lm.Min() != wm.Min() || lm.Max() != wm.Max() {
			t.Fatalf("merge drifted min/max")
		}
		if math.Abs(lm.Mean()-wm.Mean()) > 1e-9*(math.Abs(wm.Mean())+1) {
			t.Fatalf("merge drifted mean: %g vs %g", lm.Mean(), wm.Mean())
		}
	})
}

// TestSummarizeMatchesPercentile: the single-sort Summarize reads the same
// quantiles Percentile computes (bit-for-bit — both interpolate over the
// identical sorted copy).
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		xs := make([]float64, 1+rng.Intn(500))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		for _, q := range []struct {
			p    float64
			got  float64
			name string
		}{{0.50, s.P50, "P50"}, {0.95, s.P95, "P95"}, {0.99, s.P99, "P99"}} {
			want := Percentile(xs, q.p)
			if math.Float64bits(q.got) != math.Float64bits(want) {
				t.Errorf("%s = %g, Percentile = %g", q.name, q.got, want)
			}
		}
	}
}
