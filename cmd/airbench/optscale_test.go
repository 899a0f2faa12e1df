package main

import (
	"strings"
	"testing"

	"tcsa/internal/core"
)

// optscaleTestLadder is a miniature of the committed ladder: one searchable
// rung, plus (when frontier is set) the narrowest rung past the
// infeasibility floor — h=16 at ratio 2 is family 4^15 ≈ 1.07e9. The full
// ladder runs Search for seconds per rung, which is the gate's budget, not
// the test suite's, and the frontier rung itself costs enough that
// TestRunGate's reruns go without it.
func optscaleTestLadder(frontier bool) []optscaleCase {
	knee := func(gs *core.GroupSet) int { return core.CeilDiv(gs.MinChannels(), 5) }
	cases := []optscaleCase{
		{name: "TestKnee_h4", groups: optscaleUniform(25, 4, 4), nReal: knee, searchable: true},
	}
	if frontier {
		cases = append(cases, optscaleCase{
			name: "TestFrontier_h16", groups: optscaleUniform(2, 16, 2), nReal: knee, searchable: false,
		})
	}
	return cases
}

// TestRunOptscale drives the miniature ladder through the recorder:
// well-formed single-shot samples with series checksums, and the frontier
// rung reported as infeasible. TestRunGate covers the baseline comparison.
func TestRunOptscale(t *testing.T) {
	var out strings.Builder
	rec := newRecorder(&out)
	if err := runOptscale(rec, optscaleTestLadder(true)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "search infeasible") {
		t.Errorf("frontier rung not reported as infeasible:\n%s", out.String())
	}
	for _, name := range []string{"TestKnee_h4", "TestFrontier_h16"} {
		s := rec.rep.Find(name)
		if s == nil {
			t.Fatalf("report missing sample %q", name)
		}
		if s.Iterations != 1 || len(s.Checksum) != 16 || s.NsPerOp <= 0 {
			t.Errorf("%s: malformed sample %+v", name, s)
		}
	}
}

// TestOptscaleFrontierWitness: a frontier rung whose family a patient Search
// could actually enumerate must be rejected, not silently recorded as
// infeasible.
func TestOptscaleFrontierWitness(t *testing.T) {
	knee := func(gs *core.GroupSet) int { return core.CeilDiv(gs.MinChannels(), 5) }
	small := []optscaleCase{
		{name: "BogusFrontier_h4", groups: optscaleUniform(25, 4, 4), nReal: knee, searchable: false},
	}
	var out strings.Builder
	err := runOptscale(newRecorder(&out), small)
	if err == nil || !strings.Contains(err.Error(), "infeasibility") {
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
