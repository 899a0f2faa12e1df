package conformance_test

import (
	"math/big"

	"tcsa/internal/core"
)

// exactAvgDelay computes the expected delay of a uniform request (page and
// arrival instant both uniform) against a finished program, as an exact
// rational — no floating point anywhere, so cross-scheduler comparisons
// (OPT vs PAMAD vs m-PB) are tolerance-free even when the programs have
// different cycle lengths.
//
// Derivation: a request for page p arriving inside a broadcast gap of
// length g waits between 0 and g slots, uniformly; the portion exceeding
// t_p contributes the integral (g-t_p)^2/2. A page never broadcast waits a
// full cycle from any instant, contributing L*max(0, L-t_p). The result is
//
//	( sum_p [ sum_{gaps g of p} max(0, g-t_p)^2  +  2*L*max(0, L-t_p) if unbroadcast ] )
//	-----------------------------------------------------------------------------------
//	                                   2 * n * L
//
// which mirrors the continuous-arrival model used by core.Analyze and
// delaymodel while staying independent of both implementations.
func exactAvgDelay(prog *core.Program) *big.Rat {
	gs := prog.GroupSet()
	L := prog.Length()
	n := gs.Pages()
	num := new(big.Int)
	tmp := new(big.Int)
	for id := core.PageID(0); int(id) < n; id++ {
		t := gs.TimeOf(id)
		cols := prog.Appearances(id)
		if len(cols) == 0 {
			if L > t {
				tmp.SetInt64(2 * int64(L) * int64(L-t))
				num.Add(num, tmp)
			}
			continue
		}
		for k := range cols {
			var g int
			if k == 0 {
				g = cols[0] + L - cols[len(cols)-1]
			} else {
				g = cols[k] - cols[k-1]
			}
			if g > t {
				tmp.SetInt64(int64(g-t) * int64(g-t))
				num.Add(num, tmp)
			}
		}
	}
	den := new(big.Int).SetInt64(2 * int64(n) * int64(L))
	return new(big.Rat).SetFrac(num, den)
}
