package conformance

import (
	"fmt"
	"math"

	"tcsa/internal/core"
)

// This file holds the oracles of the hybrid pull/push tier
// (internal/online). They deliberately take primitive slices — airing
// tuples, arrival/flow arrays — instead of online package types, keeping
// conformance's import set at core (+delaymodel) so the online package's
// own tests can use them without a cycle.

// SlotAiring is one online-tier broadcast: at absolute slot Slot, channel
// Channel carried page Page. The oracles below treat the push program grid
// plus a list of these as the complete as-aired timeline.
type SlotAiring struct {
	Slot    int
	Channel int
	Page    core.PageID
}

// OnlineConservation is the request-clearing conservation oracle: every
// request is served exactly once, at the first instant at or after its
// arrival when its page is on air (from either tier), and the reported
// flow time equals that instant minus the arrival. It replays the combined
// timeline by brute force — per-request linear scans over the grid and the
// airing log, no appearance index, no cursors — so a bug shared by the
// engine's scheduler and its measurement pass cannot cancel out.
//
// prog is the push program; pushRows is how many of its rows the push tier
// actually owns on air (0 for a pure-online system, Channels() otherwise
// — reserved online channels live above pushRows and appear only in
// airings). pages[i], arrivals[i], flows[i] describe request i.
func OnlineConservation(prog *core.Program, pushRows int, airings []SlotAiring, pages []core.PageID, arrivals, flows []float64) error {
	if len(arrivals) != len(pages) || len(flows) != len(pages) {
		return fmt.Errorf("conformance: %d pages, %d arrivals, %d flows", len(pages), len(arrivals), len(flows))
	}
	if pushRows < 0 || pushRows > prog.Channels() {
		return fmt.Errorf("conformance: push rows %d outside grid of %d channels", pushRows, prog.Channels())
	}
	L := prog.Length()
	// Airing legality: online airings on push-owned rows may only use empty
	// cells, and a page never airs twice in one slot across the two tiers.
	for i, a := range airings {
		if a.Slot < 0 || a.Channel < 0 || a.Page < 0 || int(a.Page) >= prog.GroupSet().Pages() {
			return fmt.Errorf("conformance: airing %d out of range: %+v", i, a)
		}
		if a.Channel < pushRows {
			if got := prog.At(a.Channel, prog.Column(a.Slot)); got != core.None {
				return fmt.Errorf("conformance: airing %d preempts push cell (ch %d, col %d holds page %d)",
					i, a.Channel, prog.Column(a.Slot), got)
			}
		}
		for ch := 0; ch < pushRows; ch++ {
			if prog.At(ch, prog.Column(a.Slot)) == a.Page {
				return fmt.Errorf("conformance: airing %d duplicates push broadcast of page %d at slot %d",
					i, a.Page, a.Slot)
			}
		}
	}
	for i := range pages {
		p, arr, flow := pages[i], arrivals[i], flows[i]
		// First push broadcast of p at an integer slot s with s >= arr:
		// scan one cycle of columns starting at ceil(arr mod L). base is an
		// exact integer multiple of L (math.Mod is exact), so base+abs-arr
		// below rounds the same real as the engine's column arithmetic.
		first := math.Inf(1)
		if pushRows > 0 {
			u := math.Mod(arr, float64(L))
			base := arr - u
			for off := 0; off <= L; off++ {
				abs := int(math.Ceil(u)) + off
				col := prog.Column(abs)
				found := false
				for ch := 0; ch < pushRows; ch++ {
					if prog.At(ch, col) == p {
						found = true
						break
					}
				}
				if found {
					first = base + float64(abs)
					break
				}
			}
		}
		// First online airing of p at or after arr (log scan, any order).
		for _, a := range airings {
			if a.Page == p && float64(a.Slot) >= arr && float64(a.Slot) < first {
				first = float64(a.Slot)
			}
		}
		if math.IsInf(first, 1) {
			return fmt.Errorf("conformance: request %d (page %d, arrival %g) is never served", i, p, arr)
		}
		if got, want := flow, first-arr; got != want {
			return fmt.Errorf("conformance: request %d (page %d, arrival %g): flow %g, first on-air instant gives %g",
				i, p, arr, got, want)
		}
	}
	return nil
}

// PushIntegrity checks that the online tier never touched a filled push
// cell: under every pull/push split the push program airs exactly its own
// grid, so its Section 3.1 validity guarantee (checked by
// ValidFromAnyStart) carries over to the hybrid timeline as aired.
func PushIntegrity(prog *core.Program, pushRows int, airings []SlotAiring) error {
	if pushRows < 0 || pushRows > prog.Channels() {
		return fmt.Errorf("conformance: push rows %d outside grid of %d channels", pushRows, prog.Channels())
	}
	for i, a := range airings {
		if a.Channel >= pushRows {
			continue // reserved online channel, not part of the push grid
		}
		if got := prog.At(a.Channel, prog.Column(a.Slot)); got != core.None {
			return fmt.Errorf("conformance: airing %d (slot %d, ch %d, page %d) overwrites push page %d",
				i, a.Slot, a.Channel, a.Page, got)
		}
	}
	return nil
}

// LWFDominance asserts the Longest-Wait-First side of an adversarial
// comparison: on instances built to punish arrival-order and deadline-order
// policies (see SingleChannelBacklog), LWF's total flow time must not
// exceed the rival policy's. rival names the policy for the error message.
//
//lint:ignore testonly oracle shared by the conformance and online suites
func LWFDominance(lwfTotal float64, rival string, rivalTotal float64) error {
	if lwfTotal > rivalTotal {
		return fmt.Errorf("conformance: LWF total flow %g exceeds %s total flow %g on an adversarial instance",
			lwfTotal, rival, rivalTotal)
	}
	return nil
}

// SingleChannelBacklog generates the adversarial request pattern the LWF
// dominance suite runs on a single pure-online channel: decoy pages
// 0..decoys-1 receive one request each at t = 0, then a hot page (ID
// decoys) receives hot requests at t = 0.25. Arrival-order (FCFS) and
// deadline-order (EDF, under uniform expected times) policies burn the
// early slots on the decoys one page per slot while the hot page's
// aggregate wait grows hot-fold faster; LWF (and MRF) air the hot page
// first. Returned as parallel page/arrival slices ready for
// workload.SliceStream-style wrapping; requires hot >= 2 and decoys >= 1
// to be adversarial.
//
//lint:ignore testonly adversarial fixture shared by the conformance and online suites
func SingleChannelBacklog(hot, decoys int) (pages []core.PageID, arrivals []float64) {
	pages = make([]core.PageID, 0, decoys+hot)
	arrivals = make([]float64, 0, decoys+hot)
	for d := 0; d < decoys; d++ {
		pages = append(pages, core.PageID(d))
		arrivals = append(arrivals, 0)
	}
	for k := 0; k < hot; k++ {
		pages = append(pages, core.PageID(decoys))
		arrivals = append(arrivals, 0.25)
	}
	return pages, arrivals
}
