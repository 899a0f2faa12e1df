package perf

import (
	"math"
	"path/filepath"
	"testing"
)

func TestSeriesChecksumStable(t *testing.T) {
	a := SeriesChecksum([]float64{1, 2.5, 0, -3})
	b := SeriesChecksum([]float64{1, 2.5, 0, -3})
	if a != b {
		t.Fatalf("checksum not deterministic: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("checksum %q is not 16 hex digits", a)
	}
	if c := SeriesChecksum([]float64{1, 2.5, 0, -3 + 1e-15}); c == a {
		t.Error("checksum blind to a 1-ulp-scale perturbation")
	}
	// Signed zero and NaN payloads are distinct bit patterns: the checksum
	// fingerprints bits, not values.
	if SeriesChecksum([]float64{0}) == SeriesChecksum([]float64{math.Copysign(0, -1)}) {
		t.Error("checksum conflates +0 and -0")
	}
}

func TestSeriesChecksumEmpty(t *testing.T) {
	// FNV-1a offset basis: no writes.
	if got := SeriesChecksum(nil); got != "cbf29ce484222325" {
		t.Errorf("empty checksum = %s, want FNV-1a offset basis", got)
	}
}

func report(samples ...Sample) *Report {
	return &Report{Schema: SchemaVersion, GOOS: "linux", GOARCH: "amd64", MaxProcs: 1, Samples: samples}
}

func TestCompareClean(t *testing.T) {
	// Wall time is never compared: a 5x slowdown is not a regression.
	base := report(Sample{Name: "Analyze", NsPerOp: 100, AllocsPerOp: 6, Checksum: "aa"})
	cur := report(Sample{Name: "Analyze", NsPerOp: 500, AllocsPerOp: 6, Checksum: "aa"},
		Sample{Name: "NewBench", NsPerOp: 1, AllocsPerOp: 1})
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Fatalf("clean compare flagged regressions: %v", regs)
	}
}

func TestCompareFlagsEachMetric(t *testing.T) {
	base := report(
		Sample{Name: "alloc", NsPerOp: 100, AllocsPerOp: 10},
		Sample{Name: "drift", NsPerOp: 100, AllocsPerOp: 10, Checksum: "aa"},
		Sample{Name: "gone", NsPerOp: 100, AllocsPerOp: 10},
	)
	cur := report(
		Sample{Name: "alloc", NsPerOp: 100, AllocsPerOp: 40},
		Sample{Name: "drift", NsPerOp: 100, AllocsPerOp: 10, Checksum: "bb"},
	)
	regs := Compare(base, cur)
	want := map[string]string{"alloc": "allocs/op", "drift": "checksum", "gone": "missing"}
	if len(regs) != len(want) {
		t.Fatalf("got %d regressions %v, want %d", len(regs), regs, len(want))
	}
	for _, r := range regs {
		if want[r.Sample] != r.Metric {
			t.Errorf("sample %s flagged as %s, want %s", r.Sample, r.Metric, want[r.Sample])
		}
	}
}

func TestCompareAllocSlack(t *testing.T) {
	// Tiny baselines tolerate +2 allocs even when the ratio bound is blown.
	base := report(Sample{Name: "tiny", AllocsPerOp: 1})
	cur := report(Sample{Name: "tiny", AllocsPerOp: 3})
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Errorf("+2 allocs on a 1-alloc baseline flagged: %v", regs)
	}
	cur.Samples[0].AllocsPerOp = 4
	if regs := Compare(base, cur); len(regs) != 1 {
		t.Errorf("+3 allocs beyond ratio bound not flagged: %v", regs)
	}
	// Past the slack the 1.5x ratio decides: 10 -> 15 passes, 10 -> 16 fails.
	base.Samples[0].AllocsPerOp = 10
	cur.Samples[0].AllocsPerOp = 15
	if regs := Compare(base, cur); len(regs) != 0 {
		t.Errorf("1.5x allocs flagged: %v", regs)
	}
	cur.Samples[0].AllocsPerOp = 16
	if regs := Compare(base, cur); len(regs) != 1 {
		t.Errorf("1.6x allocs not flagged: %v", regs)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := report()
	cur := report()
	cur.Schema = SchemaVersion + 1
	regs := Compare(base, cur)
	if len(regs) != 1 || regs[0].Metric != "schema" {
		t.Fatalf("schema mismatch not flagged: %v", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	r := report(Sample{Name: "Figure5/uniform", Iterations: 1, NsPerOp: 1.5e7, AllocsPerOp: 1086, BytesPerOp: 123, Checksum: "deadbeefdeadbeef"})
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != r.Schema || len(got.Samples) != 1 || got.Samples[0] != r.Samples[0] {
		t.Errorf("round trip mismatch: %+v vs %+v", got, r)
	}
	if got.Find("Figure5/uniform") == nil || got.Find("nope") != nil {
		t.Error("Find misbehaves after round trip")
	}
}
