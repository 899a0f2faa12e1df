package core

import (
	"fmt"
	"strings"
)

// PageID identifies a broadcast data page. IDs are dense: a GroupSet with n
// pages uses IDs 0..n-1, assigned group by group in ascending expected-time
// order (all pages of G_1 first, then G_2, ...).
type PageID int32

// None marks an empty broadcast slot.
const None PageID = -1

// Group describes one expected-time group G_i: Count pages (P_i in the
// paper), each with expected time Time slots (t_i).
type Group struct {
	Time  int // expected time t_i, in slots
	Count int // number of pages P_i
}

// GroupSet is an immutable, validated sequence of expected-time groups
// G_1..G_h with t_1 < t_2 < ... < t_h and t_i | t_{i+1}. It is the problem
// instance every scheduler in this module consumes.
type GroupSet struct {
	groups []Group
	prefix []int // prefix[i] = number of pages in groups 0..i-1; len h+1
}

// NewGroupSet validates groups and builds a GroupSet. Requirements: at least
// one group; every Time >= 1 and Count >= 1; times strictly increasing; each
// time divides the next (the paper's geometric-expected-time assumption in
// its general divisibility form).
func NewGroupSet(groups []Group) (*GroupSet, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrInvalidGroupSet)
	}
	for i, g := range groups {
		if g.Time < 1 {
			return nil, fmt.Errorf("%w: group %d has time %d < 1", ErrInvalidGroupSet, i+1, g.Time)
		}
		if g.Count < 1 {
			return nil, fmt.Errorf("%w: group %d has count %d < 1", ErrInvalidGroupSet, i+1, g.Count)
		}
		if i > 0 {
			prev := groups[i-1].Time
			if g.Time <= prev {
				return nil, fmt.Errorf("%w: group times not strictly increasing (t_%d=%d, t_%d=%d)",
					ErrInvalidGroupSet, i, prev, i+1, g.Time)
			}
			if g.Time%prev != 0 {
				return nil, fmt.Errorf("%w: t_%d=%d does not divide t_%d=%d",
					ErrInvalidGroupSet, i, prev, i+1, g.Time)
			}
		}
	}
	gs := &GroupSet{
		groups: append([]Group(nil), groups...),
		prefix: make([]int, len(groups)+1),
	}
	for i, g := range groups {
		gs.prefix[i+1] = gs.prefix[i] + g.Count
	}
	return gs, nil
}

// MustGroupSet is NewGroupSet for static instances; it panics on invalid
// input. Only tests call it; it stays exported because the suites of over
// a dozen packages build their fixtures with it.
//
//lint:ignore testonly fixture builder shared by the tests of over a dozen packages
func MustGroupSet(groups []Group) *GroupSet {
	gs, err := NewGroupSet(groups)
	if err != nil {
		panic(err)
	}
	return gs
}

// Geometric builds the paper's canonical instance shape: h groups with
// t_i = t1 * c^(i-1) and counts[i-1] pages in group i.
func Geometric(t1, c int, counts []int) (*GroupSet, error) {
	if t1 < 1 {
		return nil, fmt.Errorf("%w: base time %d < 1", ErrInvalidGroupSet, t1)
	}
	if c < 2 {
		return nil, fmt.Errorf("%w: ratio %d < 2", ErrInvalidGroupSet, c)
	}
	groups := make([]Group, len(counts))
	t := t1
	for i, p := range counts {
		groups[i] = Group{Time: t, Count: p}
		if i < len(counts)-1 {
			if t > (1<<31)/c {
				return nil, fmt.Errorf("%w: group time overflow at group %d", ErrInvalidGroupSet, i+2)
			}
			t *= c
		}
	}
	return NewGroupSet(groups)
}

// Len returns the number of groups h.
func (gs *GroupSet) Len() int { return len(gs.groups) }

// Pages returns the total number of pages n.
func (gs *GroupSet) Pages() int { return gs.prefix[len(gs.groups)] }

// Group returns group i (0-based).
func (gs *GroupSet) Group(i int) Group { return gs.groups[i] }

// Groups returns a copy of the group slice.
func (gs *GroupSet) Groups() []Group { return append([]Group(nil), gs.groups...) }

// MaxTime returns t_h, the largest expected time; for a valid sufficient-
// channel program this is also the broadcast cycle length.
func (gs *GroupSet) MaxTime() int { return gs.groups[len(gs.groups)-1].Time }

// GroupOf returns the 0-based group index of page id.
func (gs *GroupSet) GroupOf(id PageID) int {
	p := int(id)
	if p < 0 || p >= gs.Pages() {
		return -1
	}
	// Binary search over prefix sums.
	lo, hi := 0, len(gs.groups)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p < gs.prefix[mid+1] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TimeOf returns the expected time of page id, or 0 when id is out of range.
func (gs *GroupSet) TimeOf(id PageID) int {
	g := gs.GroupOf(id)
	if g < 0 {
		return 0
	}
	return gs.groups[g].Time
}

// PageAt returns the PageID of the j-th page (0-based) of group i (0-based).
func (gs *GroupSet) PageAt(i, j int) PageID {
	return PageID(gs.prefix[i] + j)
}

// GroupPages returns the contiguous ID range [first, first+count) of group i.
func (gs *GroupSet) GroupPages(i int) (first PageID, count int) {
	return PageID(gs.prefix[i]), gs.groups[i].Count
}

// MinChannels returns the Theorem 3.1 lower bound on the number of channels
// needed for a valid broadcast program: ceil(sum_i P_i/t_i). The computation
// is exact integer arithmetic (every t_i divides t_h).
func (gs *GroupSet) MinChannels() int {
	th := gs.MaxTime()
	num := 0
	for _, g := range gs.groups {
		num += g.Count * (th / g.Time)
	}
	return CeilDiv(num, th)
}

// Equal reports whether two group sets describe the same instance.
//
// Only tests call it; it stays exported for the core and workload suites.
//
//lint:ignore testonly instance comparison shared by the core and workload tests
func (gs *GroupSet) Equal(other *GroupSet) bool {
	if gs == nil || other == nil {
		return gs == other
	}
	if len(gs.groups) != len(other.groups) {
		return false
	}
	for i := range gs.groups {
		if gs.groups[i] != other.groups[i] {
			return false
		}
	}
	return true
}

// String renders the instance compactly, e.g. "{t=2:P=3, t=4:P=5, t=8:P=3}".
func (gs *GroupSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, g := range gs.groups {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "t=%d:P=%d", g.Time, g.Count)
	}
	b.WriteByte('}')
	return b.String()
}
