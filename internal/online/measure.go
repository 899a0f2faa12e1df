package online

import (
	"fmt"
	"math"

	"tcsa/internal/core"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// airIndex is the online airing log in CSR form: for every page, its
// ascending absolute airing slots. A page airs online at most once per slot
// (the pick clears it before the next channel chooses), and the log is
// appended in slot order, so the fill below is already sorted.
type airIndex struct {
	offs  []int32
	slots []int64
}

func buildAirIndex(pages int, airings []Airing) *airIndex {
	ix := &airIndex{offs: make([]int32, pages+1)}
	for _, a := range airings {
		ix.offs[a.Page+1]++
	}
	for i := 0; i < pages; i++ {
		ix.offs[i+1] += ix.offs[i]
	}
	ix.slots = make([]int64, len(airings))
	fill := make([]int32, pages)
	copy(fill, ix.offs[:pages])
	for _, a := range airings {
		ix.slots[fill[a.Page]] = int64(a.Slot)
		fill[a.Page]++
	}
	return ix
}

// slotsOf is page's ascending online airing slots.
func (ix *airIndex) slotsOf(page core.PageID) []int64 {
	return ix.slots[ix.offs[page]:ix.offs[page+1]]
}

// measure computes every request's flow against the fixed push+online
// timeline: flow = min(first push appearance >= arrival, first online
// airing >= arrival). The decision pass guarantees the two tiers never air
// the same page in the same slot, so the min is never a tie and the serving
// tier is unambiguous; it also guarantees the min reproduces the decision
// pass's clearing instants (a waiting request is cleared by whichever tier
// airs its page first). It is one visit on the sim.FoldShards kernel: the
// flow is the value, the delay factor the derived value, and being served
// online the hit.
func measure(prog *core.Program, stream workload.Stream, airings []Airing, cfg Config) (*Result, error) {
	count := stream.Count()
	pages := prog.GroupSet().Pages()
	res := &Result{Requests: count}
	if count == 0 {
		return res, nil
	}
	a := core.Analyze(prog)
	ix := a.Index()
	air := buildAirIndex(pages, airings)
	L := float64(prog.Length())
	pure := cfg.Split.Mode == SplitPureOnline
	sorted := stream.Sorted()
	times := sim.ExpectedTimes(prog.GroupSet())
	if cfg.RecordFlows {
		res.Flows = make([]float64, count)
		res.ServedOnline = make([]bool, count)
	}
	fold, err := sim.FoldShards(stream, cfg.Workers, flowSpan(L), dfSpan, func() sim.Visit {
		push, on := sim.NewCursors(sorted, pages), sim.NewCursors(sorted, pages)
		var r workload.Request
		return func(shard int, cur workload.Cursor, p *sim.Partial) error {
			for local := 0; cur.Next(&r); local++ {
				// The decision pass validated the stream; a request it
				// never saw means the stream is not replayable.
				if r.Page < 0 || int(r.Page) >= pages || r.Arrival < 0 {
					return fmt.Errorf("online: stream not replayable: request %d/%d changed to page %d arrival %f",
						shard, local, r.Page, r.Arrival)
				}
				flowPush := math.Inf(1)
				if cols := ix.Columns(r.Page); !pure && len(cols) != 0 {
					// Identical arithmetic to the serial reference's
					// float64(serveSlot) - arrival: the cycle fold is
					// exact, so both subtractions round the same real
					// number.
					u := core.CycleMod(r.Arrival, L)
					flowPush = sim.WaitAt(cols, sim.NextIndex(push, r.Page, cols, u), u, L)
				}
				// Online airings never wrap: the log is a finite
				// timeline, not a cycle.
				flowOn := math.Inf(1)
				slots := air.slotsOf(r.Page)
				if k := sim.NextIndex(on, r.Page, slots, r.Arrival); int(k) < len(slots) {
					flowOn = float64(slots[k]) - r.Arrival
				}
				flow, online := flowPush, flowOn < flowPush
				if online {
					flow = flowOn
				}
				if math.IsInf(flow, 1) {
					return fmt.Errorf("online: request %d/%d page %d never served (internal inconsistency)",
						shard, local, r.Page)
				}
				addFlow(p, r.Page, flow, times[r.Page], online)
				if cfg.RecordFlows {
					i := shard*workload.ShardSize + local
					res.Flows[i], res.ServedOnline[i] = flow, online
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	setFold(res, fold)
	return res, nil
}
