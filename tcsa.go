// Package tcsa is the public face of this reproduction of
// "Time-Constrained Service on Air" (Chung, Chen, Lee; ICDCS 2005): a
// library for scheduling wireless broadcast data so that every client
// receives each page within that page's expected time — or, when the
// broadcast channels are too few for that guarantee, with the minimum
// average delay beyond it.
//
// # Quick start
//
//	gs, err := tcsa.Geometric(2, 2, []int{3, 5, 3}) // t = 2,4,8; P = 3,5,3
//	...
//	sched, err := tcsa.Build(gs, 3) // 3 broadcast channels available
//	// sched.Algorithm == tcsa.AlgorithmPAMAD (4 channels would be needed
//	// for a zero-delay program; see sched.MinChannels)
//	fmt.Println(sched.ExpectedDelay) // average slots beyond expected time
//
// Build selects the paper's appropriate algorithm automatically: SUSC
// (Section 3) when the channel budget meets the Theorem 3.1 minimum — the
// resulting program is *valid*: every page reaches every client within its
// expected time regardless of when the client tunes in — and PAMAD
// (Section 4) otherwise, which lowers per-group broadcast frequencies to
// fit the channels while minimising the average delay.
//
// Arbitrary per-page expected times are admitted through Rearrange, which
// tightens them onto the geometric group structure the schedulers need.
// The internal packages expose the full machinery (baselines, exhaustive
// search, workload generation, client/on-demand simulation, air indexing)
// for experimentation; see DESIGN.md.
package tcsa

import (
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
)

// Core model types, re-exported for API ergonomics.
type (
	// Group is one expected-time group: Count pages sharing Time.
	Group = core.Group
	// GroupSet is a validated problem instance.
	GroupSet = core.GroupSet
	// Program is a cyclic multi-channel broadcast program.
	Program = core.Program
	// Analysis is the closed-form delay analysis of a Program.
	Analysis = core.Analysis
	// PageID identifies a broadcast page.
	PageID = core.PageID
	// Rearrangement maps arbitrary expected times onto geometric groups.
	Rearrangement = core.Rearrangement
)

// None marks an empty broadcast slot.
const None = core.None

// Re-exported sentinel errors (wrap-aware via errors.Is).
var (
	ErrInvalidGroupSet      = core.ErrInvalidGroupSet
	ErrInsufficientChannels = core.ErrInsufficientChannels
	ErrInvalidProgram       = core.ErrInvalidProgram
)

// NewGroupSet validates and builds a problem instance; see core.NewGroupSet.
func NewGroupSet(groups []Group) (*GroupSet, error) { return core.NewGroupSet(groups) }

// Geometric builds the canonical instance t_i = t1 * c^(i-1).
func Geometric(t1, c int, counts []int) (*GroupSet, error) { return core.Geometric(t1, c, counts) }

// Rearrange tightens arbitrary per-page expected times onto geometric
// groups with ratio c (Section 2 of the paper).
func Rearrange(times []int, c int) (*Rearrangement, error) { return core.Rearrange(times, c) }

// RearrangeAuto tries ratios 2..maxRatio and keeps the cheapest.
func RearrangeAuto(times []int, maxRatio int) (*Rearrangement, error) {
	return core.RearrangeAuto(times, maxRatio)
}

// Analyze computes the closed-form delay profile of a finished program.
func Analyze(p *Program) *Analysis { return core.Analyze(p) }

// MinChannels returns the Theorem 3.1 minimum channel count for gs.
func MinChannels(gs *GroupSet) int { return gs.MinChannels() }

// Algorithm names the scheduler Build selected.
type Algorithm string

const (
	// AlgorithmSUSC is Scheduling Under Sufficient Channels (paper §3).
	AlgorithmSUSC Algorithm = "SUSC"
	// AlgorithmPAMAD is Progressively Approaching Minimum Average Delay
	// (paper §4).
	AlgorithmPAMAD Algorithm = "PAMAD"
)

// Schedule is the result of Build.
type Schedule struct {
	// Program is the generated cyclic broadcast program.
	Program *Program
	// Algorithm identifies which scheduler produced it.
	Algorithm Algorithm
	// Channels is the channel budget the program uses.
	Channels int
	// MinChannels is the Theorem 3.1 bound for the instance.
	MinChannels int
	// Frequencies is the per-group broadcast frequency S_1..S_h.
	Frequencies []int
	// ExpectedDelay is the closed-form average delay beyond the expected
	// time (slots, uniform page access); 0 for a valid (SUSC) program.
	ExpectedDelay float64
	// ExpectedWait is the closed-form average waiting time in slots.
	ExpectedWait float64
}

// Build produces a broadcast program for gs over the given channel budget,
// selecting SUSC when channels suffice for a valid program (Theorem 3.1)
// and PAMAD otherwise.
func Build(gs *GroupSet, channels int) (*Schedule, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", ErrInvalidGroupSet)
	}
	if channels < 1 {
		return nil, fmt.Errorf("%w: %d channels", ErrInsufficientChannels, channels)
	}
	min := gs.MinChannels()
	sched := &Schedule{Channels: channels, MinChannels: min}
	if channels >= min {
		prog, err := susc.Build(gs, channels)
		if err != nil {
			return nil, err
		}
		sched.Program = prog
		sched.Algorithm = AlgorithmSUSC
		sched.Frequencies = delaymodel.SufficientFrequencies(gs)
	} else {
		prog, res, err := pamad.Build(gs, channels)
		if err != nil {
			return nil, err
		}
		sched.Program = prog
		sched.Algorithm = AlgorithmPAMAD
		sched.Frequencies = append(sched.Frequencies, res.Frequencies...)
	}
	a := core.Analyze(sched.Program)
	sched.ExpectedDelay = a.AvgDelay()
	sched.ExpectedWait = a.AvgWait()
	return sched, nil
}

// Valid reports whether the schedule guarantees every expected time (i.e.
// the program passes the Section 3.1 validity conditions).
func (s *Schedule) Valid() bool {
	return s.Program != nil && s.Program.Validate() == nil
}
