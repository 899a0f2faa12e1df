package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/opt"
	"tcsa/internal/perf"
)

// frontierFamilyFloor is the family size beyond which an instance counts as
// infeasible for the exact search: opt.Search enumerates family members at
// well under 10^8 evaluations per second, so a 10^9-leaf family cannot finish
// inside any airbench budget even if branch-and-bound pruned nothing wrong.
// The frontier cases below exceed it by orders of magnitude.
const frontierFamilyFloor = 1e9

// optscaleEps is the slack every optscale case runs at. Changing it is a
// deliberate baseline break: the committed BENCH_optscale.json pins the
// resulting vectors.
const optscaleEps = 0.1

// optscaleCase is one point on the optimizer-scaling curve.
type optscaleCase struct {
	name       string
	groups     []core.Group
	nReal      func(gs *core.GroupSet) int
	searchable bool // run opt.Search and gate the (1+ε) ratio live
}

// optscaleUniform is the paper's uniform workload widened to h groups:
// times base·2^i, per pages each.
func optscaleUniform(per, h, base int) []core.Group {
	groups := make([]core.Group, h)
	tt := base
	for i := range groups {
		groups[i] = core.Group{Time: tt, Count: per}
		tt *= 2
	}
	return groups
}

// optscaleSkewed halves the page count per tier (hottest deadline gets half
// of all pages), the shape that stresses the low-group knee.
func optscaleSkewed(total, h, base int) []core.Group {
	groups := make([]core.Group, h)
	tt := base
	rem := total
	for i := range groups {
		c := rem / 2
		if i == h-1 {
			c = rem
		}
		if c < 1 {
			c = 1
		}
		groups[i] = core.Group{Time: tt, Count: c}
		rem -= c
		tt *= 2
	}
	return groups
}

// optscaleCases is the committed scaling ladder: two searchable rungs where
// branch-and-bound still finishes (the live (1+ε) differential gate), one
// heavyweight searchable rung near its feasibility knee, and one frontier
// rung past it where only the PTAS answers. Page totals and shapes are
// pinned by the BENCH_optscale.json baseline.
func optscaleCases() []optscaleCase {
	knee := func(gs *core.GroupSet) int { return core.CeilDiv(gs.MinChannels(), 5) }
	return []optscaleCase{
		{name: "OptScaleKnee_h8", groups: optscaleUniform(125, 8, 4), nReal: knee, searchable: true},
		{name: "OptScaleWide_h10", groups: optscaleUniform(125, 10, 4), nReal: knee, searchable: true},
		{name: "OptScaleSkew_h16", groups: optscaleSkewed(100000, 16, 4), nReal: knee, searchable: true},
		{name: "OptScaleFrontier_h20", groups: optscaleUniform(5000, 20, 2), nReal: knee, searchable: false},
	}
}

// runOptscale measures the (1+ε) PTAS against branch-and-bound along the
// scaling ladder, one single-shot sample per rung. Live gates, independent
// of the baseline: every returned vector is checked
// against the divisor-chain family oracle; on searchable rungs the
// approximate delay must be within (1+ε) of the exact optimum; on frontier
// rungs the family size must witness Search-infeasibility; and the
// parallelism determinism contract is spot-checked by re-running the first
// rung single-threaded.
func runOptscale(rec *recorder, cases []optscaleCase) error {
	ctx := context.Background()

	for i, tc := range cases {
		gs, err := core.NewGroupSet(tc.groups)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		nReal := tc.nReal(gs)
		family := opt.FamilySize(gs)

		t0 := time.Now()
		ares, err := opt.Approx(ctx, gs, nReal, opt.ApproxOptions{Eps: optscaleEps})
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		approxTime := time.Since(t0)
		if err := conformance.DivisorChainFamily(gs, ares.Frequencies); err != nil {
			return fmt.Errorf("%s: approx vector outside the family: %w", tc.name, err)
		}

		// The determinism contract in the artifact itself: the committed
		// checksum must not depend on the runner's core count, so rung 0
		// is recomputed single-threaded and compared bit for bit.
		if i == 0 {
			solo, err := opt.Approx(ctx, gs, nReal, opt.ApproxOptions{Eps: optscaleEps, Parallelism: 1})
			if err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			if solo.Delay != ares.Delay || solo.Evaluated != ares.Evaluated {
				return fmt.Errorf("%s: parallelism leaked into the result: (%v, %d) vs (%v, %d)",
					tc.name, solo.Delay, solo.Evaluated, ares.Delay, ares.Evaluated)
			}
		}

		// Checksummed series: only fields the determinism contract pins.
		// Wall times are recorded in ns/op but never checksummed.
		vals := []float64{optscaleEps, family, float64(nReal), ares.Delay, float64(ares.Evaluated)}
		for _, s := range ares.Frequencies {
			vals = append(vals, float64(s))
		}

		if tc.searchable {
			t0 = time.Now()
			sres, err := opt.Search(ctx, gs, nReal, opt.Options{})
			if err != nil {
				return fmt.Errorf("%s: exact search: %w", tc.name, err)
			}
			searchNs := float64(time.Since(t0).Nanoseconds())
			ratio := 1.0
			if sres.Delay > 0 {
				ratio = ares.Delay / sres.Delay
			} else if ares.Delay > 0 {
				return fmt.Errorf("%s: exact optimum 0 but approx delay %v", tc.name, ares.Delay)
			}
			if ares.Delay > sres.Delay*(1+optscaleEps)+1e-9 {
				return fmt.Errorf("%s: approx %v beyond (1+ε)·opt %v", tc.name, ares.Delay, sres.Delay)
			}
			vals = append(vals, sres.Delay, ratio)
			fmt.Fprintf(rec.out, "%-22s h=%2d pages=%6d N=%4d family=%8.3g  approx %8.1fms  search %8.1fms  ratio %.6f\n",
				tc.name, gs.Len(), gs.Pages(), nReal, family, approxTime.Seconds()*1e3, searchNs/1e6, ratio)
		} else {
			if family <= frontierFamilyFloor {
				return fmt.Errorf("%s: family %.3g does not witness Search-infeasibility (floor %.0g)",
					tc.name, family, frontierFamilyFloor)
			}
			fmt.Fprintf(rec.out, "%-22s h=%2d pages=%6d N=%4d family=%8.3g  approx %8.1fms  search infeasible (family > %.0g)\n",
				tc.name, gs.Len(), gs.Pages(), nReal, family, approxTime.Seconds()*1e3, frontierFamilyFloor)
		}

		rec.add(tc.name, testing.BenchmarkResult{N: 1, T: approxTime}, perf.SeriesChecksum(vals))
	}
	return nil
}
