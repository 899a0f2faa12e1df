package core

import (
	"math"
	"math/rand"
	"testing"
)

// sameMod fails t unless CycleMod(x, L) has math.Mod(x, L)'s exact bits
// (any NaN matches any NaN).
func sameMod(t *testing.T, x, L float64) {
	t.Helper()
	got, want := CycleMod(x, L), math.Mod(x, L)
	if math.IsNaN(got) && math.IsNaN(want) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("CycleMod(%v, %v) = %v (%#x), math.Mod %v (%#x)",
			x, L, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestCycleModMatchesMathMod: the fold is math.Mod bit for bit on the
// special values, around 2^52 where the fast path hands over, at every
// multiple k·L of the cycle and both its float neighbours (where a
// rounded quotient x/L would first reach k), and on random instants of
// every magnitude.
func TestCycleModMatchesMathMod(t *testing.T) {
	next := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	prev := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	special := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), // subnormals
		-math.SmallestNonzeroFloat64, math.Float64frombits(0x0010000000000000),
		-1, -0.5, -419, -3.25e9,
		math.NaN(), math.Inf(1), math.Inf(-1),
		prev(1 << 52), 1 << 52, next(1 << 52), 1<<52 + 1, 1 << 53, 1<<53 + 2,
		1 << 63, 1e19, 1e300, math.MaxFloat64,
		0.5, prev(1), 1, next(1),
	}
	rng := rand.New(rand.NewSource(52))
	for _, L := range []float64{1, 3, 419, 1 << 10, 1 << 20} {
		for _, x := range special {
			sameMod(t, x, L)
		}
		for k := 0.0; k <= 4096; k++ {
			x := k * L
			sameMod(t, prev(x), L)
			sameMod(t, x, L)
			sameMod(t, next(x), L)
		}
		// The largest multiples below 2^52, where x/L has the fewest
		// fraction bits left.
		top := math.Floor((1 << 52) / L)
		for k := top - 64; k <= top+1; k++ {
			x := k * L
			sameMod(t, prev(x), L)
			sameMod(t, x, L)
			sameMod(t, next(x), L)
		}
		for i := 0; i < 200_000; i++ {
			x := math.Ldexp(rng.Float64(), rng.Intn(60)-4)
			sameMod(t, x, L)
			sameMod(t, -x, L)
		}
	}
	// Whole cycles beyond the fast path's quotients, and instants below one
	// cycle of a cycle longer than 2^52.
	for _, L := range []float64{1 << 52, 1<<52 + 1, 1 << 60, 3 << 60} {
		for _, x := range append(special, 12345.678, prev(L), L, next(L)) {
			sameMod(t, x, L)
		}
	}
}

// FuzzCycleMod: any instant's bits against any whole cycle length
// 1 <= L < 2^64 agree with math.Mod bit for bit.
func FuzzCycleMod(f *testing.F) {
	f.Add(math.Float64bits(419.5), uint64(419))
	f.Add(math.Float64bits(3*419), uint64(419))
	f.Add(math.Float64bits(math.Nextafter(1<<52, 0)), uint64(3))
	f.Add(math.Float64bits(math.Copysign(0, -1)), uint64(1))
	f.Add(math.Float64bits(math.NaN()), uint64(1<<20))
	f.Add(uint64(1), uint64(1))
	f.Fuzz(func(t *testing.T, xbits, l uint64) {
		if l == 0 {
			l = 1
		}
		sameMod(t, math.Float64frombits(xbits), float64(l))
	})
}
