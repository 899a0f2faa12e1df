package core

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
