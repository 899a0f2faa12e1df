package core

import "math"

// CeilDiv returns ceil(a/b) for positive b. It is exact for all int inputs
// with a >= 0 and panics-free for the negative-a case (rounds toward +inf).
func CeilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}

// Ceil is a dependency-free ceil for non-negative floats. Values at or
// above 2^63 never fit an int64 — that conversion is implementation-defined
// in Go — but every float64 that large is already integral (the mantissa
// has 52 fraction bits), so they are their own ceiling.
func Ceil(x float64) float64 {
	if x >= 1<<63 {
		return x
	}
	i := float64(int64(x))
	if i < x {
		return i + 1
	}
	return i
}

// CycleMod folds instant x into a cycle of whole length L >= 1: it is
// math.Mod(x, L), bit for bit, at a fraction of its cost. An x in (0, L)
// is its own fold. For L <= x < 2^52, q = trunc(x/L) is exactly
// floor(x/L): the division could round up to the next integer k only
// from within half the float spacing g below k, so from x within L*g/2 of
// k*L, but x lies below the integer k*L by at least its own ulp, which
// is at least 2^floor(log2 L) * g > L*g/2. L*q is then an exact integer
// and x - L*q the exact remainder. Every other x (zeros, negatives, NaN,
// ±Inf, huge) goes to math.Mod.
func CycleMod(x, L float64) float64 {
	if !(x > 0 && x < 1<<52) {
		return math.Mod(x, L)
	}
	if x < L {
		return x
	}
	return x - L*float64(int64(x/L))
}
