package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.N() != 0 {
		t.Error("zero value not empty")
	}
	o.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if o.N() != 8 {
		t.Errorf("N = %d, want 8", o.N())
	}
	if got, want := o.Mean(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %f, want %f", got, want)
	}
	// Sample variance of that classic set: sum sq dev = 32, /7.
	if got, want := o.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %f, want %f", got, want)
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("Min/Max = %f/%f, want 2/9", o.Min(), o.Max())
	}
	if o.CI95() <= 0 {
		t.Error("CI95 not positive")
	}
	if s := o.String(); !strings.Contains(s, "n=8") {
		t.Errorf("String() = %q", s)
	}
}

func TestOnlineSingleObservation(t *testing.T) {
	var o Online
	o.Add(3)
	if o.Variance() != 0 || o.CI95() != 0 {
		t.Error("variance of single observation not 0")
	}
	if o.Min() != 3 || o.Max() != 3 {
		t.Error("min/max wrong for single observation")
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestOnlineMergeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := rng.Intn(50), rng.Intn(50)
		var a, b, all Online
		for i := 0; i < na; i++ {
			x := rng.NormFloat64() * 10
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < nb; i++ {
			x := rng.NormFloat64()*3 + 5
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		return math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-6 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeEmptySides(t *testing.T) {
	var a, b Online
	b.Add(4)
	a.Merge(b) // empty <- nonempty
	if a.N() != 1 || a.Mean() != 4 {
		t.Error("merge into empty failed")
	}
	var c Online
	a.Merge(c) // nonempty <- empty
	if a.N() != 1 {
		t.Error("merge of empty changed state")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %f, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	tests := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3.0, 2}, {-1, 1}, {2, 4},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%f) = %f, want %f", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	// Must not mutate input.
	if xs[0] != 4 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0, 0}, 1},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{1, 2, 3}, 36.0 / (3 * 14)},
	}
	for _, tt := range tests {
		if got := JainIndex(tt.xs); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %f, want %f", tt.xs, got, tt.want)
		}
	}
}
