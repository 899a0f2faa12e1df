// Package online is the slot-level online broadcast scheduler of the
// hybrid pull/push tier: a live request queue competing with the static
// push program (SUSC/PAMAD) for broadcast slots.
//
// The paper's model is pure push — every page airs on a fixed cyclic
// program — but its Section 1 motivation is the hybrid dynamic: impatient
// clients defect to an on-demand uplink, and "too many such actions could
// seriously congest the on-demand channels". This package gives those
// defectors (and any other request-driven workload) a real online
// scheduler instead of a detached queueing model: requests wait in a
// per-page queue, and at every slot the online tier may air the page a
// pluggable policy selects, clearing *all* waiting requests for it at once
// (the broadcast clearing model of the online scheduling literature).
//
// Policies are the principled baselines from that literature: Longest
// Wait First (Chekuri–Im–Moseley, "Longest Wait First for Broadcast
// Scheduling"), Most Requests First, Earliest Deadline First and FCFS.
// Performance is measured the way those papers measure it — per-request
// flow time (serve instant minus arrival), max flow time (Im–Sviridenko)
// and delay factor (flow over the page's expected-time window, floored at
// 1) — folded into mergeable stats.Sketches that are bit-identical at any
// worker or shard count.
//
// The split between the tiers is configurable (Split): reserved online
// channels appended to the push program, threshold-triggered stealing of
// the push grid's empty cells, or a pure online system. No split mode ever
// preempts a filled push cell, so the push tier's Section 3.1 validity
// guarantee survives every split as aired — the property the
// conformance.PushIntegrity oracle checks.
//
// Run is the production path: a serial slot-level decision pass (the
// scheduling itself is inherently sequential) followed by a sharded
// parallel measurement pass over the then-fixed airing timeline, one visit
// on the sim.FoldShards kernel. The differential and fuzz suites pin Run
// bit for bit against RunSerial, a one-pass reference implementation kept
// in the package's tests.
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package online

import (
	"fmt"
	"math"

	"tcsa/internal/core"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
)

// Policy selects which waiting page the online tier airs when it owns a
// slot. All policies break ties toward the smaller page ID, so the
// selection is a pure function of the queue state.
type Policy int

const (
	// LWF airs the page with the largest aggregate waiting time — the sum
	// over its waiting requests of (now - arrival). The Longest Wait First
	// policy of Chekuri–Im–Moseley, O(1)-competitive for total flow time.
	LWF Policy = iota
	// MRF airs the page with the most waiting requests (Most Requests
	// First), the classic throughput-greedy broadcast policy.
	MRF
	// EDF airs the page whose waiting requests contain the earliest
	// deadline (arrival + expected time).
	EDF
	// FCFS airs the page holding the oldest waiting request.
	FCFS
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LWF:
		return "lwf"
	case MRF:
		return "mrf"
	case EDF:
		return "edf"
	case FCFS:
		return "fcfs"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps "lwf", "mrf", "edf", "fcfs" to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lwf":
		return LWF, nil
	case "mrf":
		return MRF, nil
	case "edf":
		return EDF, nil
	case "fcfs":
		return FCFS, nil
	default:
		return 0, fmt.Errorf("online: unknown policy %q", s)
	}
}

// Policies lists every policy, in declaration order.
func Policies() []Policy { return []Policy{LWF, MRF, EDF, FCFS} }

// SplitMode selects how the online tier obtains broadcast slots.
type SplitMode int

const (
	// SplitReserved appends Split.OnlineChannels dedicated online channels
	// after the push program's rows: the push tier keeps every one of its
	// slots, the online tier owns the reserved channels outright.
	SplitReserved SplitMode = iota
	// SplitSteal gives the online tier the push grid's *empty* cells
	// (spill slots, t_major rounding slack), claimed only while the oldest
	// waiting request has waited at least Split.StealThreshold slots.
	// Filled push cells are never preempted.
	SplitSteal
	// SplitPureOnline drives every channel from the online policy; the
	// push program contributes no airings (it still defines the instance,
	// the channel count and the cycle length).
	SplitPureOnline
)

// String implements fmt.Stringer.
func (m SplitMode) String() string {
	switch m {
	case SplitReserved:
		return "reserved"
	case SplitSteal:
		return "steal"
	case SplitPureOnline:
		return "pure"
	default:
		return fmt.Sprintf("SplitMode(%d)", int(m))
	}
}

// Split configures the pull/push slot competition.
type Split struct {
	Mode SplitMode
	// OnlineChannels is the reserved-channel quota (SplitReserved only);
	// must be >= 1 in that mode.
	OnlineChannels int
	// StealThreshold is the wait (slots) of the oldest queued request
	// beyond which the online tier claims empty push cells (SplitSteal
	// only); 0 steals every empty cell, +Inf never steals.
	StealThreshold float64
}

// ParseSplit maps "reserved:K", "steal:T" and "pure" to a Split
// ("reserved" alone defaults to one channel, "steal" to threshold 0).
func ParseSplit(s string) (Split, error) {
	var k int
	var t float64
	switch {
	case s == "pure":
		return Split{Mode: SplitPureOnline}, nil
	case s == "reserved":
		return Split{Mode: SplitReserved, OnlineChannels: 1}, nil
	case s == "steal":
		return Split{Mode: SplitSteal}, nil
	default:
		if n, err := fmt.Sscanf(s, "reserved:%d", &k); err == nil && n == 1 {
			return Split{Mode: SplitReserved, OnlineChannels: k}, nil
		}
		if n, err := fmt.Sscanf(s, "steal:%g", &t); err == nil && n == 1 {
			return Split{Mode: SplitSteal, StealThreshold: t}, nil
		}
		return Split{}, fmt.Errorf("online: unknown split %q (want reserved[:K], steal[:T] or pure)", s)
	}
}

// String renders the split in ParseSplit syntax.
func (s Split) String() string {
	switch s.Mode {
	case SplitReserved:
		return fmt.Sprintf("reserved:%d", s.OnlineChannels)
	case SplitSteal:
		return fmt.Sprintf("steal:%g", s.StealThreshold)
	default:
		return s.Mode.String()
	}
}

// validate checks the split parameters.
func (s Split) validate() error {
	switch s.Mode {
	case SplitReserved:
		if s.OnlineChannels < 1 {
			return fmt.Errorf("online: reserved split needs >= 1 online channel, got %d", s.OnlineChannels)
		}
	case SplitSteal:
		if s.StealThreshold < 0 || math.IsNaN(s.StealThreshold) {
			return fmt.Errorf("online: steal threshold %f", s.StealThreshold)
		}
	case SplitPureOnline:
		// no parameters
	default:
		return fmt.Errorf("online: unknown split mode %d", int(s.Mode))
	}
	return nil
}

// Config parameterises a run of the online tier.
type Config struct {
	// Policy selects the slot-competition policy; default LWF.
	Policy Policy
	// Split selects the pull/push slot split. Its zero Mode is the
	// reserved split, which still needs OnlineChannels >= 1.
	Split Split
	// Workers shards the measurement pass; <= 0 uses GOMAXPROCS. The
	// result is bit-identical at any worker count.
	Workers int
	// RecordFlows retains the per-request flow times (and serving tier) in
	// the Result, indexed by request position in the stream. Off by
	// default: the sketches make the result O(1) in the request count.
	RecordFlows bool
}

// Airing is one slot the online tier aired: at absolute slot Slot, channel
// Channel carried page Page. Push airings are not logged — they are the
// program grid itself.
type Airing struct {
	Slot    int
	Channel int
	Page    core.PageID
}

// Result is the outcome of one online-tier run.
type Result struct {
	// Requests is the stream size; PushServed + OnlineServed == Requests.
	Requests     int
	PushServed   int // requests cleared by a scheduled push airing
	OnlineServed int // requests cleared by an online airing

	// OnlineAirings is the number of slots the online tier aired
	// (== len(Airings)); StolenSlots counts the SplitSteal subset.
	OnlineAirings int
	StolenSlots   int
	// HorizonSlots is the number of slots the decision pass replayed.
	HorizonSlots int

	// AvgFlow / MaxFlow are the mean and maximum per-request flow time
	// (serve instant - arrival, in slots); exact.
	AvgFlow float64
	MaxFlow float64
	// AvgDelayFactor / MaxDelayFactor summarise max(1, flow / t_page),
	// the delay-factor objective of the online broadcast literature.
	AvgDelayFactor float64
	MaxDelayFactor float64

	// Flow and DelayFactor carry the full profiles: moment fields exact,
	// quantiles stats.Sketch estimates (~1%), identical at any worker
	// count.
	Flow        stats.Summary
	DelayFactor stats.Summary

	// TraceDigest fingerprints every per-request outcome (page, flow
	// bits, serving tier) in shard order; bit-identical at any worker
	// count.
	TraceDigest uint64

	// Airings is the online airing log, in (slot, channel) order.
	Airings []Airing

	// Flows / ServedOnline are per-request records, present only when
	// Config.RecordFlows was set.
	Flows        []float64
	ServedOnline []bool
}

// flowSpan is the flow sketch range: flows up to 64 cycles resolve to ~1%
// buckets, larger flows clamp into the top bucket (the exact Max is
// carried separately).
func flowSpan(L float64) sim.Span { return sim.CycleSpan(L, 64) }

// dfSpan is the delay-factor sketch range: factors are >= 1 by
// definition, so lo = 0.5 keeps them out of the sketch's zero bucket;
// factors beyond 4096 clamp into the top bucket.
var dfSpan = sim.Span{Lo: 0.5, Hi: 4096}

// addFlow folds one request's flow into p: the delay factor max(1, flow/t)
// is the derived value, and being served online is both the hit and the
// digest tag.
func addFlow(p *sim.Partial, page core.PageID, flow, t float64, online bool) {
	df := flow / t
	if df < 1 {
		df = 1
	}
	var tag uint64
	if online {
		tag = 1
	}
	p.Add(page, flow, df, tag, online)
}

// setFold fills res's measured fields from the kernel's fold; an empty
// fold leaves them zero.
func setFold(res *Result, f sim.Fold) {
	if f.N == 0 {
		return
	}
	n := float64(f.N)
	res.OnlineServed = int(f.Hits)
	res.PushServed = f.N - int(f.Hits)
	res.AvgFlow = f.ValueSum / n
	res.MaxFlow = f.Value.Max
	res.AvgDelayFactor = f.DerivedSum / n
	res.MaxDelayFactor = f.Derived.Max
	res.Flow = f.Value
	res.DelayFactor = f.Derived
	res.TraceDigest = f.Digest
}
