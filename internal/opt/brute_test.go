package opt

import (
	"context"
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// bruteForce enumerates every non-increasing frequency vector with
// 1 <= S_i <= maxS[i] and S_h = 1 — a strict superset of the divisor-chain
// family Search explores — and returns the delay-minimal one. Cost is
// exponential in the group count; intended for small validation instances
// only (the package tests use it to bound the cost of the divisor-chain
// restriction). maxS entries < 1 default to t_h/t_i, the zero-delay
// frequency.
func bruteForce(ctx context.Context, gs *core.GroupSet, nReal int, maxS []int) (*Result, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	if nReal < 1 {
		return nil, fmt.Errorf("%w: %d channels", core.ErrInsufficientChannels, nReal)
	}
	h := gs.Len()
	limits := make([]int, h)
	th := gs.MaxTime()
	for i := 0; i < h; i++ {
		if maxS != nil && i < len(maxS) && maxS[i] >= 1 {
			limits[i] = maxS[i]
		} else {
			limits[i] = th / gs.Group(i).Time
		}
	}

	best := &Result{Delay: -1}
	s := make(delaymodel.Frequencies, h)
	s[h-1] = 1
	var rec func(i int) error
	rec = func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i < 0 {
			d := delaymodel.GroupDelay(gs, s, nReal)
			best.Evaluated++
			cand := &Result{Frequencies: s, Delay: d}
			if best.Delay < 0 || betterResult(gs, cand, best) {
				best.Frequencies = s.Clone()
				best.Delay = d
			}
			return nil
		}
		// Non-increasing: S_i >= S_{i+1}.
		lo := 1
		if i < h-1 {
			lo = s[i+1]
		}
		for v := lo; v <= limits[i] || v == lo; v++ {
			s[i] = v
			if err := rec(i - 1); err != nil {
				return err
			}
		}
		return nil
	}
	// rec(-1) handles h == 1 directly: it scores the fixed S = (1) vector.
	if err := rec(h - 2); err != nil {
		return nil, err
	}
	return best, nil
}
