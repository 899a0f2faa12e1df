package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/opt"
)

// frontierFamilyFloor is the family size beyond which an instance counts as
// infeasible for the exact search: opt.Search enumerates family members at
// well under 10^8 evaluations per second, so a 10^9-leaf family cannot finish
// inside any test budget even if branch-and-bound pruned nothing wrong.
// The frontier rung of the committed ladder exceeds it by orders of
// magnitude.
const frontierFamilyFloor = 1e9

// optscaleEps is the slack every optscale rung runs at. Changing it changes
// the rungs' checksums.
const optscaleEps = 0.1

// optscaleCase is one point on the optimizer-scaling curve.
type optscaleCase struct {
	name       string
	groups     []core.Group
	searchable bool // run opt.Search and hold the (1+ε) ratio
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
// branch-and-bound still finishes, one heavyweight searchable rung near its
// feasibility knee, and one frontier rung past it where only the PTAS
// answers. Its golden rows pin page totals and shapes.
func optscaleCases() []optscaleCase {
	return []optscaleCase{
		{name: "OptScaleKnee_h8", groups: optscaleUniform(125, 8, 4), searchable: true},
		{name: "OptScaleWide_h10", groups: optscaleUniform(125, 10, 4), searchable: true},
		{name: "OptScaleSkew_h16", groups: optscaleSkewed(100000, 16, 4), searchable: true},
		{name: "OptScaleFrontier_h20", groups: optscaleUniform(5000, 20, 2), searchable: false},
	}
}

// optscaleRung runs the (1+ε) PTAS on one rung at 1/5 of the minimum
// channels and returns the series its checksum fingerprints. The returned
// vector must lie in the divisor-chain family; on a searchable rung the
// approximate delay must be within (1+ε) of opt.Search's exact optimum;
// on a frontier rung the family size must witness Search-infeasibility.
func optscaleRung(tc optscaleCase) ([]float64, error) {
	ctx := context.Background()
	gs, err := core.NewGroupSet(tc.groups)
	if err != nil {
		return nil, err
	}
	nReal := core.CeilDiv(gs.MinChannels(), 5)
	family := opt.FamilySize(gs)
	ares, err := opt.Approx(ctx, gs, nReal, opt.ApproxOptions{Eps: optscaleEps})
	if err != nil {
		return nil, err
	}
	if err := conformance.DivisorChainFamily(gs, ares.Frequencies); err != nil {
		return nil, fmt.Errorf("approx vector outside the family: %w", err)
	}
	vals := []float64{optscaleEps, family, float64(nReal), ares.Delay, float64(ares.Evaluated)}
	for _, s := range ares.Frequencies {
		vals = append(vals, float64(s))
	}
	if !tc.searchable {
		if family <= frontierFamilyFloor {
			return nil, fmt.Errorf("family %.3g does not witness Search-infeasibility (floor %.0g)",
				family, frontierFamilyFloor)
		}
		return vals, nil
	}
	sres, err := opt.Search(ctx, gs, nReal, opt.Options{})
	if err != nil {
		return nil, fmt.Errorf("exact search: %w", err)
	}
	ratio := 1.0
	if sres.Delay > 0 {
		ratio = ares.Delay / sres.Delay
	} else if ares.Delay > 0 {
		return nil, fmt.Errorf("exact optimum 0 but approx delay %v", ares.Delay)
	}
	if ares.Delay > sres.Delay*(1+optscaleEps)+1e-9 {
		return nil, fmt.Errorf("approx %v beyond (1+ε)·opt %v", ares.Delay, sres.Delay)
	}
	return append(vals, sres.Delay, ratio), nil
}

// TestRunOptscale drives a miniature of the committed ladder through
// optscaleRung: one searchable rung, and the narrowest rung past the
// infeasibility floor (h=16 at ratio 2 is family 4^15 ≈ 1.07e9). Only
// the searchable rung carries the exact delay and ratio.
func TestRunOptscale(t *testing.T) {
	for _, tc := range []optscaleCase{
		{name: "TestKnee_h4", groups: optscaleUniform(25, 4, 4), searchable: true},
		{name: "TestFrontier_h16", groups: optscaleUniform(2, 16, 2), searchable: false},
	} {
		vals, err := optscaleRung(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := 5 + len(tc.groups)
		if tc.searchable {
			want += 2
		}
		if len(vals) != want {
			t.Errorf("%s: series has %d values, want %d", tc.name, len(vals), want)
		}
	}
}

// TestOptscaleFrontierWitness: a frontier rung whose family a patient Search
// could actually enumerate must be rejected, not silently recorded as
// infeasible.
func TestOptscaleFrontierWitness(t *testing.T) {
	bogus := optscaleCase{name: "BogusFrontier_h4", groups: optscaleUniform(25, 4, 4), searchable: false}
	if _, err := optscaleRung(bogus); err == nil || !strings.Contains(err.Error(), "infeasibility") {
		t.Fatalf("err = %v, want the infeasibility-witness failure", err)
	}
}

// TestOptscaleCommittedLadder pins the committed ladder's shape so a config
// edit cannot silently shrink the frontier claim: at least one rung must be
// past the Search-infeasibility floor with h >= 8 and >= 1e5 pages.
func TestOptscaleCommittedLadder(t *testing.T) {
	frontier := false
	for _, tc := range optscaleCases() {
		gs, err := core.NewGroupSet(tc.groups)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.searchable && gs.Len() >= 8 && gs.Pages() >= 100000 {
			frontier = true
		}
	}
	if !frontier {
		t.Fatal("committed ladder lost its h>=8, pages>=1e5 frontier rung")
	}
}
