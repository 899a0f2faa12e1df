package perf

import (
	"math"
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
