package core

import (
	"slices"
	"sort"
	"sync"
)

// Analysis is an immutable snapshot of a program's per-page appearance
// structure plus the closed-form delay quantities derived from it. Build one
// with Analyze after the program is complete; it does not track later edits.
//
// The delay model matches Section 4.1 of the paper: a client starts to
// listen at a time uniformly distributed over the cycle and waits for the
// next appearance of its page. With appearance columns a_0 < ... < a_{s-1}
// and cyclic gaps g_k, for a page with expected time t:
//
//	E[wait]        = sum_k g_k^2 / (2L)
//	E[delay]       = sum_k max(g_k - t, 0)^2 / (2L)
//	P[delay > 0]   = sum_k max(g_k - t, 0) / L
type Analysis struct {
	program *Program
	ix      *AppearanceIndex
	// perPageDelay[i] is E[delay] of page i; perPageWait likewise.
	perPageDelay []float64
	perPageWait  []float64
	perPageMiss  []float64
	// chans is the channel of every appearance, aligned with ix's column
	// arena, built by the first Channels call rather than by Analyze.
	chansOnce sync.Once
	chans     []int32
}

// Analyze computes the appearance snapshot of p. Pages that never appear
// get +Inf-free sentinel treatment: their wait and delay are reported as the
// full cycle length (the worst deterministic bound) and miss probability 1.
func Analyze(p *Program) *Analysis {
	n := p.gs.Pages()
	// One arena for the three per-page series keeps Analyze at a small
	// constant allocation count (guarded by TestAnalyzeAllocations).
	buf := make([]float64, 3*n)
	a := &Analysis{
		program:      p,
		ix:           BuildAppearanceIndex(p),
		perPageDelay: buf[:n:n],
		perPageWait:  buf[n : 2*n : 2*n],
		perPageMiss:  buf[2*n:],
	}
	L := float64(p.length)
	for id := 0; id < n; id++ {
		cols := a.ix.Columns(PageID(id))
		t := float64(p.gs.TimeOf(PageID(id)))
		if len(cols) == 0 {
			a.perPageWait[id] = L
			a.perPageDelay[id] = L
			a.perPageMiss[id] = 1
			continue
		}
		var wait, delay, miss float64
		for k := 0; k < len(cols); k++ {
			var g float64
			if k+1 < len(cols) {
				g = float64(cols[k+1] - cols[k])
			} else {
				g = float64(int(cols[0]) + p.length - int(cols[k]))
			}
			wait += g * g / (2 * L)
			if d := g - t; d > 0 {
				delay += d * d / (2 * L)
				miss += d / L
			}
		}
		a.perPageWait[id] = wait
		a.perPageDelay[id] = delay
		a.perPageMiss[id] = miss
	}
	return a
}

// Program returns the analyzed program.
func (a *Analysis) Program() *Program { return a.program }

// Index returns the appearance index snapshot backing the analysis.
func (a *Analysis) Index() *AppearanceIndex { return a.ix }

// Channels returns the channel carrying each of page id's appearances:
// Channels(id)[k] airs column Index().Columns(id)[k]. A page broadcast on
// several channels of one column reports the highest of them. The table
// is one arena built on the first call; callers must not modify it.
func (a *Analysis) Channels(id PageID) []int32 {
	a.chansOnce.Do(a.buildChannels)
	return a.chans[a.ix.offs[id]:a.ix.offs[id+1]]
}

// buildChannels fills the arena row by row, so a later channel of a column
// overwrites an earlier one.
func (a *Analysis) buildChannels() {
	p, ix := a.program, a.ix
	a.chans = make([]int32, len(ix.cols))
	for ch := 0; ch < p.channels; ch++ {
		for slot, id := range p.grid[ch*p.length : (ch+1)*p.length] {
			if id == None {
				continue
			}
			if k, ok := slices.BinarySearch(ix.Columns(id), int32(slot)); ok {
				a.chans[int(ix.offs[id])+k] = int32(ch)
			}
		}
	}
}

// PageDelay returns E[delay] (slots beyond the expected time) of page id.
func (a *Analysis) PageDelay(id PageID) float64 { return a.perPageDelay[id] }

// PageWait returns E[wait] (slots from tune-in to reception) of page id.
func (a *Analysis) PageWait(id PageID) float64 { return a.perPageWait[id] }

// PageMissProbability returns P[delay > 0] for page id.
func (a *Analysis) PageMissProbability(id PageID) float64 { return a.perPageMiss[id] }

// AvgDelay returns the paper's AvgD metric under uniform page access:
// (1/n) * sum_i E[delay of page i].
func (a *Analysis) AvgDelay() float64 { return mean(a.perPageDelay) }

// AvgWait returns the mean expected waiting time under uniform page access.
func (a *Analysis) AvgWait() float64 { return mean(a.perPageWait) }

// MissProbability returns the mean probability that a uniformly chosen
// request misses its expected time.
func (a *Analysis) MissProbability() float64 { return mean(a.perPageMiss) }

// Appearances returns the sorted distinct appearance columns of page id as
// a freshly allocated slice; Index().Columns(id) is the allocation-free
// equivalent.
func (a *Analysis) Appearances(id PageID) []int {
	return a.ix.AppendColumns(nil, id)
}

// NextAfter returns the waiting time from continuous cycle instant u (in
// [0, cycle length)) until the next appearance of page id, treating the
// program as infinitely repeating. A page broadcast exactly at u is received
// with zero wait. Pages that never appear wait a full cycle.
func (a *Analysis) NextAfter(id PageID, u float64) float64 {
	cols := a.ix.Columns(id)
	L := float64(a.program.length)
	if len(cols) == 0 {
		return L
	}
	// First column >= u.
	target := int32(Ceil(u))
	k := sort.Search(len(cols), func(i int) bool { return cols[i] >= target })
	if k == len(cols) {
		return float64(cols[0]) + L - u
	}
	return float64(cols[k]) - u
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GroupDelay returns the mean expected delay of group i's pages (uniform
// access within the group).
func (a *Analysis) GroupDelay(i int) float64 {
	gs := a.program.gs
	first, count := gs.GroupPages(i)
	var sum float64
	for j := 0; j < count; j++ {
		sum += a.perPageDelay[first+PageID(j)]
	}
	return sum / float64(count)
}

// WorstGap returns the largest inter-appearance gap (cyclic) of page id in
// slots; pages that never appear report the cycle length.
func (a *Analysis) WorstGap(id PageID) int {
	return a.ix.WorstGap(id)
}
