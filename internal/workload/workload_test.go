package workload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tcsa/internal/core"
)

func TestGroupCountsSumAndFloor(t *testing.T) {
	for _, d := range Distributions() {
		for _, tc := range []struct{ h, n int }{
			{8, 1000}, {8, 8}, {8, 9}, {1, 5}, {5, 17}, {3, 1000},
		} {
			counts, err := GroupCounts(d, tc.h, tc.n)
			if err != nil {
				t.Fatalf("%v h=%d n=%d: %v", d, tc.h, tc.n, err)
			}
			sum := 0
			for _, c := range counts {
				if c < 1 {
					t.Errorf("%v h=%d n=%d: count %d < 1 in %v", d, tc.h, tc.n, c, counts)
				}
				sum += c
			}
			if sum != tc.n {
				t.Errorf("%v h=%d n=%d: counts %v sum to %d", d, tc.h, tc.n, counts, sum)
			}
		}
	}
}

func TestGroupCountsShapes(t *testing.T) {
	const h, n = 8, 1000
	uni, _ := GroupCounts(Uniform, h, n)
	for _, c := range uni {
		if c != n/h {
			t.Errorf("uniform counts = %v, want all %d", uni, n/h)
		}
	}
	lsk, _ := GroupCounts(LSkewed, h, n)
	for i := 1; i < h; i++ {
		if lsk[i] > lsk[i-1] {
			t.Errorf("L-skewed counts not non-increasing: %v", lsk)
		}
	}
	if lsk[0] <= lsk[h-1] {
		t.Errorf("L-skewed has no skew: %v", lsk)
	}
	ssk, _ := GroupCounts(SSkewed, h, n)
	for i := range ssk {
		if ssk[i] != lsk[h-1-i] {
			t.Errorf("S-skewed %v is not the mirror of L-skewed %v", ssk, lsk)
			break
		}
	}
	nor, _ := GroupCounts(Normal, h, n)
	peak := 0
	for i, c := range nor {
		if c > nor[peak] {
			peak = i
		}
	}
	if peak == 0 || peak == h-1 {
		t.Errorf("normal peak at edge: %v", nor)
	}
	// Bell: non-decreasing up to the peak, non-increasing after.
	for i := 1; i <= peak; i++ {
		if nor[i] < nor[i-1]-1 { // rounding can wobble by 1
			t.Errorf("normal not bell-shaped on the left: %v", nor)
		}
	}
	for i := peak + 1; i < h; i++ {
		if nor[i] > nor[i-1]+1 {
			t.Errorf("normal not bell-shaped on the right: %v", nor)
		}
	}
}

func TestGroupCountsErrors(t *testing.T) {
	if _, err := GroupCounts(Uniform, 0, 10); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := GroupCounts(Uniform, 10, 5); err == nil {
		t.Error("n<h accepted")
	}
	if _, err := GroupCounts(Distribution(99), 4, 10); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestGroupCountsDeterministic(t *testing.T) {
	a, _ := GroupCounts(Normal, 8, 1000)
	b, _ := GroupCounts(Normal, 8, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("GroupCounts not deterministic: %v vs %v", a, b)
		}
	}
}

func TestGroupSetBuildsPaperDefault(t *testing.T) {
	gs, err := GroupSet(Uniform, 8, 1000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Pages() != 1000 || gs.Len() != 8 {
		t.Fatalf("instance = %v", gs)
	}
	wantTimes := []int{4, 8, 16, 32, 64, 128, 256, 512}
	for i, w := range wantTimes {
		if gs.Group(i).Time != w {
			t.Errorf("t_%d = %d, want %d", i+1, gs.Group(i).Time, w)
		}
	}
	if got := gs.MinChannels(); got != 63 {
		t.Errorf("MinChannels = %d, want 63 (paper reports 64 for its exact histogram)", got)
	}
}

func TestDistributionString(t *testing.T) {
	tests := map[Distribution]string{
		Uniform: "uniform", Normal: "normal", LSkewed: "L-skewed", SSkewed: "S-skewed",
		Distribution(42): "Distribution(42)",
	}
	for d, want := range tests {
		if got := d.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(d), got, want)
		}
	}
}

func TestParseDistribution(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Distribution
	}{
		{"uniform", Uniform}, {"normal", Normal},
		{"lskew", LSkewed}, {"l-skewed", LSkewed},
		{"sskew", SSkewed}, {"s-skewed", SSkewed},
	} {
		got, err := ParseDistribution(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDistribution(%q) = %v,%v want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseDistribution("pareto"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestApportionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Intn(12)
		n := h + rng.Intn(2000)
		d := Distributions()[rng.Intn(4)]
		counts, err := GroupCounts(d, h, n)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range counts {
			if c < 1 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRequestsUniform(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 10}, {Time: 4, Count: 10}})
	reqs, err := GenerateRequests(gs, 100, RequestConfig{Count: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 5000 {
		t.Fatalf("got %d requests", len(reqs))
	}
	hits := make([]int, gs.Pages())
	for _, r := range reqs {
		if r.Page < 0 || int(r.Page) >= gs.Pages() {
			t.Fatalf("page %d out of range", r.Page)
		}
		if r.Arrival < 0 || r.Arrival >= 100 {
			t.Fatalf("arrival %f out of cycle", r.Arrival)
		}
		hits[r.Page]++
	}
	// Uniform: each page expects 250 hits; allow generous slack.
	for id, hcount := range hits {
		if hcount < 150 || hcount > 350 {
			t.Errorf("page %d hit %d times, want ~250", id, hcount)
		}
	}
}

func TestGenerateRequestsZipfSkews(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 50}})
	reqs, err := GenerateRequests(gs, 10, RequestConfig{Count: 20000, Choice: ZipfPages, Theta: 0.9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var low, high int
	for _, r := range reqs {
		if r.Page < 10 {
			low++
		}
		if r.Page >= 40 {
			high++
		}
	}
	if low <= 2*high {
		t.Errorf("Zipf not skewed: first decile %d hits vs last decile %d", low, high)
	}
}

func TestGenerateRequestsDeterministicAcrossCalls(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 10}})
	a, _ := GenerateRequests(gs, 10, RequestConfig{Count: 100, Seed: 7})
	b, _ := GenerateRequests(gs, 10, RequestConfig{Count: 100, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c, _ := GenerateRequests(gs, 10, RequestConfig{Count: 100, Seed: 8})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateRequestsErrors(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}})
	if _, err := GenerateRequests(nil, 10, RequestConfig{Count: 1}); err == nil {
		t.Error("nil group set accepted")
	}
	if _, err := GenerateRequests(gs, 0, RequestConfig{Count: 1}); err == nil {
		t.Error("cycle 0 accepted")
	}
	if _, err := GenerateRequests(gs, 10, RequestConfig{Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := GenerateRequests(gs, 10, RequestConfig{Count: 1, Choice: PageChoice(9)}); err == nil {
		t.Error("unknown choice accepted")
	}
	if _, err := GenerateRequests(gs, 10, RequestConfig{Count: 1, Choice: ZipfPages, Theta: 2}); err == nil {
		t.Error("theta > 1 accepted")
	}
}

// TestParseInstance: the command-line instance parser builds geometric
// count lists and named distributions, and names what is missing.
func TestParseInstance(t *testing.T) {
	for _, tc := range []struct {
		name, counts, dist string
		want               []core.Group // nil: an error is expected
		wantErr            string
	}{
		{name: "counts", counts: "3, 5,3", want: []core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}}},
		{name: "counts win", counts: "4", dist: "pareto", want: []core.Group{{Time: 2, Count: 4}}},
		{name: "dist", dist: "uniform", want: []core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 3}}},
		{name: "bad count", counts: "3,x", wantErr: `counts: parsing "x"`},
		{name: "zero count", counts: "3,0", wantErr: "count"},
		{name: "bad dist", dist: "pareto", wantErr: "unknown distribution"},
		{name: "neither", wantErr: "one of -counts or -dist is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gs, err := ParseInstance(tc.counts, tc.dist, 6, 2, 2, 2)
			if tc.want == nil {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !gs.Equal(core.MustGroupSet(tc.want)) {
				t.Errorf("got %v, want %v", gs, tc.want)
			}
		})
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestGeneratePoissonRequests(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 10}})
	cfg := PoissonConfig{RequestConfig: RequestConfig{Count: 20000, Seed: 15}, Rate: 2.0}
	reqs, err := GeneratePoissonRequests(gs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, r := range reqs {
		if r.Arrival <= prev {
			t.Fatalf("arrival %d not strictly increasing: %f after %f", i, r.Arrival, prev)
		}
		prev = r.Arrival
	}
	// Mean inter-arrival should be ~1/rate.
	if mean := prev / float64(len(reqs)); mean < 0.45 || mean > 0.55 {
		t.Errorf("mean inter-arrival %f, want ~0.5", mean)
	}
	if _, err := GeneratePoissonRequests(nil, cfg); err == nil {
		t.Error("nil group set accepted")
	}
	bad := cfg
	bad.Rate = 0
	if _, err := GeneratePoissonRequests(gs, bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = cfg
	bad.Count = -1
	if _, err := GeneratePoissonRequests(gs, bad); err == nil {
		t.Error("negative count accepted")
	}
}
