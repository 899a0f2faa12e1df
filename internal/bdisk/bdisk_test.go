package bdisk

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

func fig2() *core.GroupSet {
	return core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}})
}

func TestBuildValidation(t *testing.T) {
	gs := fig2()
	flat := FlatDisks(gs)
	if _, err := Build(nil, flat, 1); err == nil {
		t.Error("nil group set accepted")
	}
	if _, err := Build(gs, flat, 0); err == nil {
		t.Error("0 channels accepted")
	}
	if _, err := Build(gs, nil, 1); err == nil {
		t.Error("no disks accepted")
	}
	if _, err := Build(gs, []Disk{{Pages: []core.PageID{0}, Freq: 0}}, 1); err == nil {
		t.Error("0 frequency accepted")
	}
	if _, err := Build(gs, []Disk{{Pages: nil, Freq: 1}}, 1); err == nil {
		t.Error("empty disk accepted")
	}
	if _, err := Build(gs, []Disk{{Pages: []core.PageID{0, 0}, Freq: 1}}, 1); err == nil {
		t.Error("duplicate page accepted")
	}
	if _, err := Build(gs, []Disk{{Pages: []core.PageID{0, 99}, Freq: 1}}, 1); err == nil {
		t.Error("out-of-range page accepted")
	}
	if _, err := Build(gs, []Disk{{Pages: []core.PageID{0}, Freq: 1}}, 1); err == nil {
		t.Error("uncovered pages accepted")
	}
}

func TestFlatDisksRoundRobin(t *testing.T) {
	gs := fig2()
	prog, err := Build(gs, FlatDisks(gs), 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Length() != gs.Pages() {
		t.Errorf("flat cycle = %d, want n = %d", prog.Length(), gs.Pages())
	}
	for id := core.PageID(0); int(id) < gs.Pages(); id++ {
		if got := prog.CountOf(id); got != 1 {
			t.Errorf("page %d appears %d times in flat schedule", id, got)
		}
	}
}

// TestDeadlineDisksFrequencies: group-i pages appear t_h/t_i times per
// major cycle, interleaved chunk-wise.
func TestDeadlineDisksFrequencies(t *testing.T) {
	gs := fig2()
	prog, err := Build(gs, DeadlineDisks(gs), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 2, 1}
	for id := core.PageID(0); int(id) < gs.Pages(); id++ {
		if got := prog.CountOf(id); got != want[gs.GroupOf(id)] {
			t.Errorf("page %d appears %d times, want %d", id, got, want[gs.GroupOf(id)])
		}
	}
}

// TestInterleaveSpacing: on a single disk-speed-2 + disk-speed-1 layout the
// fast disk's chunks recur every minor cycle.
func TestInterleaveSpacing(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 4}})
	disks := []Disk{
		{Pages: []core.PageID{0, 1}, Freq: 2},
		{Pages: []core.PageID{2, 3, 4, 5}, Freq: 1},
	}
	prog, err := Build(gs, disks, 1)
	if err != nil {
		t.Fatal(err)
	}
	// maxChunks=2: minor cycles = [d0 chunk0, d1 chunk0][d0 chunk0, d1
	// chunk1] -> fast pages appear twice, slow once.
	for _, id := range []core.PageID{0, 1} {
		if prog.CountOf(id) != 2 {
			t.Errorf("fast page %d count = %d", id, prog.CountOf(id))
		}
	}
	for _, id := range []core.PageID{2, 3, 4, 5} {
		if prog.CountOf(id) != 1 {
			t.Errorf("slow page %d count = %d", id, prog.CountOf(id))
		}
	}
}

func TestMultiChannelStriping(t *testing.T) {
	gs := fig2()
	p1, err := Build(gs, DeadlineDisks(gs), 1)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Build(gs, DeadlineDisks(gs), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Length() != core.CeilDiv(p1.Length()*1, 3) {
		t.Errorf("striped length = %d, want ceil(%d/3)", p3.Length(), p1.Length())
	}
	if p3.Filled() != p1.Filled() {
		t.Errorf("striping lost pages: %d vs %d", p3.Filled(), p1.Filled())
	}
	// Striping must divide waits by roughly the channel count.
	w1 := core.Analyze(p1).AvgWait()
	w3 := core.Analyze(p3).AvgWait()
	if w3 > w1/2 {
		t.Errorf("3-channel wait %f not well below single-channel %f", w3, w1)
	}
}

func TestSqrtRuleDisks(t *testing.T) {
	gs := core.MustGroupSet([]core.Group{{Time: 4, Count: 8}})
	prob := []float64{0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05}
	disks, err := sqrtRuleDisks(gs, prob, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(disks) != 3 {
		t.Fatalf("%d disks", len(disks))
	}
	if disks[0].Freq != 4 || disks[1].Freq != 2 || disks[2].Freq != 1 {
		t.Errorf("frequencies = %d,%d,%d want 4,2,1", disks[0].Freq, disks[1].Freq, disks[2].Freq)
	}
	// Hottest page rides the fastest disk.
	if disks[0].Pages[0] != 0 {
		t.Errorf("fastest disk leads with page %d, want 0", disks[0].Pages[0])
	}
	if _, err := sqrtRuleDisks(gs, prob[:3], 2); err == nil {
		t.Error("wrong-length probabilities accepted")
	}
	if _, err := sqrtRuleDisks(gs, prob, 0); err == nil {
		t.Error("0 levels accepted")
	}
	prog, err := Build(gs, disks, 2)
	if err != nil {
		t.Fatal(err)
	}
	if prog.CountOf(0) <= prog.CountOf(7) {
		t.Errorf("hot page broadcast %d times vs cold %d", prog.CountOf(0), prog.CountOf(7))
	}
}

// TestDeadlineAgnosticCostsDelay is the reason this package exists: the
// flat schedule minimises mean wait under uniform access but its AvgD —
// the paper's metric — is far worse than PAMAD's at the same budget.
func TestDeadlineAgnosticCostsDelay(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 4, 120, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Moderate scarcity (the minimum is 15): under extreme overload PAMAD
	// correctly degenerates to the flat schedule itself, so the schedulers
	// only differentiate when there is bandwidth worth prioritising.
	const channels = 8
	flatProg, err := Build(gs, FlatDisks(gs), channels)
	if err != nil {
		t.Fatal(err)
	}
	pamadProg, _, err := pamad.Build(gs, channels)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, flatProg.Length(), workload.RequestConfig{Count: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := sim.Measure(flatProg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	pReqs, err := workload.GenerateRequests(gs, pamadProg.Length(), workload.RequestConfig{Count: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sim.Measure(pamadProg, pReqs)
	if err != nil {
		t.Fatal(err)
	}
	if pm.AvgDelay >= flat.AvgDelay {
		t.Errorf("PAMAD AvgD %.2f not below flat broadcast-disk AvgD %.2f", pm.AvgDelay, flat.AvgDelay)
	}
	// And the converse trade: flat's mean wait is (near) optimal.
	if flat.AvgWait > pm.AvgWait*1.05 {
		t.Errorf("flat wait %.2f above PAMAD wait %.2f — flat should win mean wait", flat.AvgWait, pm.AvgWait)
	}
}

// sqrtRuleDisks partitions pages into `levels` disks by the square-root
// rule (broadcast frequency proportional to sqrt of access probability —
// optimal for mean access time): pages are ranked by probability and split
// into equal-population levels with frequencies 2^(levels-1-k).
func sqrtRuleDisks(gs *core.GroupSet, prob []float64, levels int) ([]Disk, error) {
	n := gs.Pages()
	if len(prob) != n {
		return nil, fmt.Errorf("%w: %d probabilities for %d pages", core.ErrPageRange, len(prob), n)
	}
	if levels < 1 || levels > n {
		return nil, fmt.Errorf("bdisk: %d levels for %d pages", levels, n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		// Rank by sqrt(p); ties by index for determinism.
		return math.Sqrt(prob[order[a]]) > math.Sqrt(prob[order[b]])
	})
	disks := make([]Disk, levels)
	per := (n + levels - 1) / levels
	for k := 0; k < levels; k++ {
		lo := k * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			disks = disks[:k]
			break
		}
		pages := make([]core.PageID, 0, hi-lo)
		for _, idx := range order[lo:hi] {
			pages = append(pages, core.PageID(idx))
		}
		disks[k] = Disk{Pages: pages, Freq: 1 << (levels - 1 - k)}
	}
	return disks, nil
}
