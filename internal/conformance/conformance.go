// Package conformance turns the paper's theorems into reusable oracles:
// self-contained checkers that any test suite (susc, pamad, mpb, opt,
// netcast, chaos) can apply to a finished broadcast program instead of
// re-implementing the invariant ad hoc.
//
// Every oracle is deliberately *independent* of the production code paths
// it checks: validity is established by brute-force replay from every
// start instant rather than by core.Program.Validate's gap walk, and the
// Theorem 3.1 channel law is recomputed from first principles rather than
// delegated to core.GroupSet.MinChannels. A bug shared by a scheduler and
// its analysis therefore cannot silently cancel out in the tests.
//
// Oracles return an error describing the first violation (nil means the
// invariant holds), so they compose with *testing.T in any test suite.
// The package imports only core and delaymodel, which keeps it importable
// from every scheduler package's internal tests without import cycles.
// Only tests import it.
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
//lint:ignore testonly oracle package the tests of a dozen packages and cmd/airbench import
package conformance

import (
	"fmt"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
)

// MinChannelLaw computes the Theorem 3.1 lower bound N = ceil(sum_i P_i/t_i)
// independently of core.GroupSet.MinChannels: the sum is evaluated in exact
// integer arithmetic scaled by t_h (every t_i divides t_h by the group-set
// divisibility invariant, so the scaling is lossless).
func MinChannelLaw(gs *core.GroupSet) int {
	th := gs.MaxTime()
	scaled := 0
	for i := 0; i < gs.Len(); i++ {
		g := gs.Group(i)
		scaled += g.Count * (th / g.Time)
	}
	// ceil(scaled / th) without core.CeilDiv, keeping the oracle
	// self-contained.
	n := scaled / th
	if scaled%th != 0 {
		n++
	}
	return n
}

// ValidFromAnyStart is the client-facing guarantee of Section 3.1 in its
// strongest mechanical form: for every page i and every integer tuning
// instant u in [0, L), the next broadcast of page i (treating the program
// as infinitely repeating) happens within t_i slots. It replays the grid
// directly — no appearance index, no gap arithmetic — so it cross-checks
// core.Program.Validate rather than restating it.
func ValidFromAnyStart(prog *core.Program) error {
	gs := prog.GroupSet()
	L := prog.Length()
	n := gs.Pages()
	// A start instant u in [0, L) receives page p within t_p slots iff no
	// gap between consecutive broadcasts of p exceeds t_p and the first
	// broadcast falls before t_p. Replaying 2L absolute slots observes
	// every cyclic gap — including the wrap-around — directly on the grid.
	last := make([]int, n)
	seen := make([]bool, n)
	for p := range last {
		last[p] = -1
	}
	for abs := 0; abs < 2*L; abs++ {
		c := prog.Column(abs)
		for ch := 0; ch < prog.Channels(); ch++ {
			if p := prog.At(ch, c); p != core.None {
				if seen[p] && last[p] >= 0 {
					gap := abs - last[p]
					if t := gs.TimeOf(p); gap > t {
						return fmt.Errorf("%w: page %d waits %d slots (start %d) > t=%d",
							core.ErrInvalidProgram, p, gap, last[p], t)
					}
				}
				last[p] = abs
				seen[p] = true
			}
		}
	}
	for p := 0; p < n; p++ {
		if !seen[p] {
			return fmt.Errorf("%w: page %d never broadcast", core.ErrInvalidProgram, p)
		}
		// First appearance within t_i covers the start instants before it.
		first := -1
		for c := 0; c < L && first < 0; c++ {
			for ch := 0; ch < prog.Channels(); ch++ {
				if prog.At(ch, c) == core.PageID(p) {
					first = c
					break
				}
			}
		}
		if t := gs.TimeOf(core.PageID(p)); first >= t {
			return fmt.Errorf("%w: page %d first broadcast at slot %d >= t=%d",
				core.ErrInvalidProgram, p, first, t)
		}
	}
	return nil
}

// DivisorChainFamily checks membership in the paper's Section 5 frequency
// family, independently of the optimizer code paths that generate such
// vectors: S_h = 1 and every S_i is an integer multiple of S_{i+1}
// (S_i = prod_{j>=i} r_j with repetition factors r_j >= 1). Every vector
// the exact search enumerates and the PTAS emits must satisfy it, and any
// member is buildable by the Algorithm 4 placement.
func DivisorChainFamily(gs *core.GroupSet, s delaymodel.Frequencies) error {
	if err := s.Validate(gs); err != nil {
		return err
	}
	h := gs.Len()
	if s[h-1] != 1 {
		return fmt.Errorf("%w: S_%d = %d, want 1 (chain anchor)", core.ErrInvalidGroupSet, h, s[h-1])
	}
	for i := h - 2; i >= 0; i-- {
		if s[i]%s[i+1] != 0 {
			return fmt.Errorf("%w: S_%d = %d not a multiple of S_%d = %d",
				core.ErrInvalidGroupSet, i+1, s[i], i+2, s[i+1])
		}
	}
	return nil
}

// ChannelLaw checks Theorem 3.1 as a theorem, not a formula: a program that
// is valid from every start instant must use at least MinChannelLaw
// channels. It is vacuously satisfied by invalid programs (they prove
// nothing about the bound).
//
//lint:ignore testonly oracle shared by the conformance and susc suites
func ChannelLaw(prog *core.Program) error {
	if err := ValidFromAnyStart(prog); err != nil {
		return nil // invalid programs carry no Theorem 3.1 obligation
	}
	law := MinChannelLaw(prog.GroupSet())
	if prog.Channels() < law {
		return fmt.Errorf("%w: valid program on %d channels below the Theorem 3.1 bound %d",
			core.ErrInvalidProgram, prog.Channels(), law)
	}
	return nil
}

// PeriodicSpacing is the Theorem 3.2/3.3 oracle for sufficient-channel
// (SUSC-style) programs: every page of group i appears exactly t_h/t_i
// times per cycle, consecutive appearances are exactly t_i slots apart,
// and all appearances of a page sit on a single channel.
//
//lint:ignore testonly oracle shared by the conformance and susc suites
func PeriodicSpacing(prog *core.Program) error {
	gs := prog.GroupSet()
	th := gs.MaxTime()
	if prog.Length() != th {
		return fmt.Errorf("%w: cycle length %d, Theorem 3.3 expects t_h=%d",
			core.ErrInvalidProgram, prog.Length(), th)
	}
	for id := core.PageID(0); int(id) < gs.Pages(); id++ {
		ti := gs.TimeOf(id)
		var cols []int
		channel := -1
		for c := 0; c < prog.Length(); c++ {
			for ch := 0; ch < prog.Channels(); ch++ {
				if prog.At(ch, c) != id {
					continue
				}
				cols = append(cols, c)
				if channel == -1 {
					channel = ch
				} else if channel != ch {
					return fmt.Errorf("%w: page %d appears on channels %d and %d",
						core.ErrInvalidProgram, id, channel, ch)
				}
			}
		}
		if want := th / ti; len(cols) != want {
			return fmt.Errorf("%w: page %d has %d appearances, Theorem 3.3 expects t_h/t_i=%d",
				core.ErrInvalidProgram, id, len(cols), want)
		}
		for k := 1; k < len(cols); k++ {
			if g := cols[k] - cols[k-1]; g != ti {
				return fmt.Errorf("%w: page %d gap %d between appearances %d and %d, want exactly t=%d",
					core.ErrInvalidProgram, id, g, k-1, k, ti)
			}
		}
		if len(cols) > 1 {
			if wrap := cols[0] + th - cols[len(cols)-1]; wrap != ti {
				return fmt.Errorf("%w: page %d cyclic wrap gap %d, want exactly t=%d",
					core.ErrInvalidProgram, id, wrap, ti)
			}
		}
	}
	return nil
}

// SlotOccupancy is the Theorem 3.2 slot-existence law in mechanical form:
// a completed sufficient-channel build placed every one of the
// sum_i P_i * t_h/t_i transmissions the frequencies demand — no page lost
// a slot the theorem proves must exist.
//
//lint:ignore testonly oracle shared by the conformance and susc suites
func SlotOccupancy(prog *core.Program) error {
	gs := prog.GroupSet()
	th := gs.MaxTime()
	want := 0
	for i := 0; i < gs.Len(); i++ {
		g := gs.Group(i)
		want += g.Count * (th / g.Time)
	}
	if prog.Filled() != want {
		return fmt.Errorf("%w: %d filled cells, demand is %d",
			core.ErrInvalidProgram, prog.Filled(), want)
	}
	return nil
}

// PlacementCounts mirrors the accounting a placement reports. It is a
// plain struct (not pamad.PlacementStats) so the oracle stays importable
// from the pamad package's own tests.
type PlacementCounts struct {
	Spills     int
	EmptySlots int
}

// SpillAccounting checks PAMAD/m-PB placement bookkeeping against the
// program it produced: every page of group i occupies exactly S_i cells,
// the filled total is sum_i S_i*P_i, the cycle length matches the
// Frequencies.MajorCycle law, and EmptySlots accounts for every cell the
// grid has beyond the transmissions (spills relocate transmissions, they
// never create or destroy them).
//
//lint:ignore testonly oracle shared by the chaos, conformance, mpb, opt and pamad suites
func SpillAccounting(prog *core.Program, s delaymodel.Frequencies, counts PlacementCounts) error {
	gs := prog.GroupSet()
	if err := s.Validate(gs); err != nil {
		return err
	}
	if want := s.MajorCycle(gs, prog.Channels()); prog.Length() != want {
		return fmt.Errorf("%w: major cycle %d, frequencies demand %d",
			core.ErrInvalidProgram, prog.Length(), want)
	}
	// One grid pass counts every page's cells: O(cells), where a CountOf
	// per page would rescan the grid for each of them.
	occupied := make([]int, gs.Pages())
	for ch := 0; ch < prog.Channels(); ch++ {
		for slot := 0; slot < prog.Length(); slot++ {
			if id := prog.At(ch, slot); id >= 0 && int(id) < len(occupied) {
				occupied[id]++
			}
		}
	}
	for id := core.PageID(0); int(id) < gs.Pages(); id++ {
		if got, want := occupied[id], s[gs.GroupOf(id)]; got != want {
			return fmt.Errorf("%w: page %d occupies %d cells, frequency is %d",
				core.ErrInvalidProgram, id, got, want)
		}
	}
	total := s.TotalSlots(gs)
	if prog.Filled() != total {
		return fmt.Errorf("%w: %d filled cells, transmissions total %d",
			core.ErrInvalidProgram, prog.Filled(), total)
	}
	cells := prog.Channels() * prog.Length()
	if want := cells - total; counts.EmptySlots != want {
		return fmt.Errorf("%w: EmptySlots=%d, grid has %d cells for %d transmissions (want %d)",
			core.ErrInvalidProgram, counts.EmptySlots, cells, total, want)
	}
	if counts.Spills < 0 || counts.Spills > total {
		return fmt.Errorf("%w: spill count %d outside [0, %d]",
			core.ErrInvalidProgram, counts.Spills, total)
	}
	return nil
}

// MissFreeLaw is the bridge between the scheduling theorems and the chaos
// runtime: on a program that is valid from every start instant, a
// measurement taken under zero faults must record zero deadline misses.
// A nonzero miss count on a valid program means the measurement engine —
// not the schedule — is broken.
func MissFreeLaw(prog *core.Program, misses int64) error {
	if err := ValidFromAnyStart(prog); err != nil {
		return nil // invalid program: misses are legitimate
	}
	if misses != 0 {
		return fmt.Errorf("%w: %d deadline misses measured on a program valid from every start",
			core.ErrInvalidProgram, misses)
	}
	return nil
}
