package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGroupSetValidation(t *testing.T) {
	tests := []struct {
		name   string
		groups []Group
		wantOK bool
	}{
		{"single group", []Group{{Time: 4, Count: 10}}, true},
		{"paper figure 2", []Group{{2, 3}, {4, 5}, {8, 3}}, true},
		{"divisible non-geometric", []Group{{2, 1}, {4, 1}, {16, 1}}, true},
		{"empty", nil, false},
		{"zero time", []Group{{0, 1}}, false},
		{"negative time", []Group{{-2, 1}}, false},
		{"zero count", []Group{{2, 0}}, false},
		{"negative count", []Group{{2, -1}}, false},
		{"equal times", []Group{{2, 1}, {2, 1}}, false},
		{"decreasing times", []Group{{4, 1}, {2, 1}}, false},
		{"non-divisible", []Group{{2, 1}, {3, 1}}, false},
		{"non-divisible later", []Group{{2, 1}, {4, 1}, {6, 1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gs, err := NewGroupSet(tt.groups)
			if tt.wantOK {
				if err != nil {
					t.Fatalf("NewGroupSet(%v) error: %v", tt.groups, err)
				}
				if gs.Len() != len(tt.groups) {
					t.Errorf("Len() = %d, want %d", gs.Len(), len(tt.groups))
				}
				return
			}
			if err == nil {
				t.Fatalf("NewGroupSet(%v) succeeded, want error", tt.groups)
			}
			if !errors.Is(err, ErrInvalidGroupSet) {
				t.Errorf("error %v is not ErrInvalidGroupSet", err)
			}
		})
	}
}

func TestGeometric(t *testing.T) {
	gs, err := Geometric(4, 2, []int{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 8, 16}
	for i, w := range want {
		if got := gs.Group(i).Time; got != w {
			t.Errorf("t_%d = %d, want %d", i+1, got, w)
		}
	}
	if gs.Pages() != 60 {
		t.Errorf("Pages() = %d, want 60", gs.Pages())
	}
}

func TestGeometricRejectsBadInput(t *testing.T) {
	if _, err := Geometric(0, 2, []int{1}); err == nil {
		t.Error("t1=0 accepted")
	}
	if _, err := Geometric(2, 1, []int{1}); err == nil {
		t.Error("c=1 accepted")
	}
	if _, err := Geometric(2, 2, []int{1, 0}); err == nil {
		t.Error("zero count accepted")
	}
}

// TestMinChannelsPaperExample reproduces the Section 3.1 example:
// P=(2,3), t=(2,4) => ceil(2/2 + 3/4) = ceil(1.75) = 2.
func TestMinChannelsPaperExample(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 2}, {4, 3}})
	if got := gs.MinChannels(); got != 2 {
		t.Errorf("MinChannels() = %d, want 2", got)
	}
}

// TestMinChannelsFigure2 reproduces the Figure 2 instance: P=(3,5,3),
// t=(2,4,8) => ceil(3/2 + 5/4 + 3/8) = ceil(3.125) = 4 channels.
func TestMinChannelsFigure2(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 3}, {4, 5}, {8, 3}})
	if got := gs.MinChannels(); got != 4 {
		t.Errorf("MinChannels() = %d, want 4", got)
	}
}

func TestMinChannelsTable(t *testing.T) {
	tests := []struct {
		groups []Group
		want   int
	}{
		{[]Group{{1, 1}}, 1},
		{[]Group{{1, 7}}, 7},
		{[]Group{{4, 4}}, 1},
		{[]Group{{4, 5}}, 2},
		{[]Group{{2, 2}, {4, 3}}, 2},
		{[]Group{{2, 3}, {4, 5}, {8, 3}}, 4},
		{[]Group{{512, 1000}}, 2},
		{[]Group{{4, 125}, {8, 125}, {16, 125}, {32, 125}, {64, 125}, {128, 125}, {256, 125}, {512, 125}}, 63},
	}
	for _, tt := range tests {
		gs := MustGroupSet(tt.groups)
		if got := gs.MinChannels(); got != tt.want {
			t.Errorf("MinChannels(%v) = %d, want %d", gs, got, tt.want)
		}
	}
}

// Property: MinChannels equals the ceiling of the density sum_i P_i/t_i
// within floating error.
func TestMinChannelsMatchesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		gs := randomGroupSet(rng)
		n := gs.MinChannels()
		var d float64
		for _, g := range gs.Groups() {
			d += float64(g.Count) / float64(g.Time)
		}
		if float64(n) < d-1e-9 || float64(n-1) >= d+1e-9 {
			t.Fatalf("instance %v: MinChannels=%d inconsistent with density %f", gs, n, d)
		}
	}
}

func TestGroupOfAndTimeOf(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 3}, {4, 5}, {8, 3}})
	wantGroups := []int{0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2}
	for id, wg := range wantGroups {
		if got := gs.GroupOf(PageID(id)); got != wg {
			t.Errorf("GroupOf(%d) = %d, want %d", id, got, wg)
		}
		if got, want := gs.TimeOf(PageID(id)), gs.Group(wg).Time; got != want {
			t.Errorf("TimeOf(%d) = %d, want %d", id, got, want)
		}
	}
	if gs.GroupOf(-1) != -1 || gs.GroupOf(11) != -1 {
		t.Error("GroupOf out-of-range did not return -1")
	}
	if gs.TimeOf(99) != 0 {
		t.Error("TimeOf out-of-range did not return 0")
	}
}

func TestPageAtAndGroupPages(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 3}, {4, 5}, {8, 3}})
	if got := gs.PageAt(1, 0); got != 3 {
		t.Errorf("PageAt(1,0) = %d, want 3", got)
	}
	if got := gs.PageAt(2, 2); got != 10 {
		t.Errorf("PageAt(2,2) = %d, want 10", got)
	}
	first, count := gs.GroupPages(1)
	if first != 3 || count != 5 {
		t.Errorf("GroupPages(1) = %d,%d want 3,5", first, count)
	}
}

func TestGroupSetAccessors(t *testing.T) {
	groups := []Group{{2, 3}, {4, 5}, {8, 3}}
	gs := MustGroupSet(groups)
	if gs.MaxTime() != 8 {
		t.Errorf("MaxTime() = %d, want 8", gs.MaxTime())
	}
	for i, g := range groups {
		if got := gs.Group(i); got != g {
			t.Errorf("Group(%d) = %v, want %v", i, got, g)
		}
	}
	gg := gs.Groups()
	gg[0].Count = 999 // must not alias internal state
	if gs.Group(0).Count != 3 {
		t.Error("Groups() aliases internal state")
	}
}

func TestGroupSetEqual(t *testing.T) {
	a := MustGroupSet([]Group{{2, 3}, {4, 5}})
	b := MustGroupSet([]Group{{2, 3}, {4, 5}})
	c := MustGroupSet([]Group{{2, 3}, {4, 6}})
	d := MustGroupSet([]Group{{2, 3}})
	if !a.Equal(b) {
		t.Error("identical sets not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different sets reported Equal")
	}
	var nilSet *GroupSet
	if a.Equal(nilSet) {
		t.Error("Equal(nil) = true")
	}
}

func TestGroupSetString(t *testing.T) {
	gs := MustGroupSet([]Group{{2, 3}, {4, 5}})
	if got, want := gs.String(), "{t=2:P=3, t=4:P=5}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMustGroupSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGroupSet did not panic on invalid input")
		}
	}()
	MustGroupSet(nil)
}

// Property: GroupOf(PageAt(i, j)) == i for all in-range (i, j).
func TestGroupOfInversesPageAt(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gs := randomGroupSet(rng)
		for i := 0; i < gs.Len(); i++ {
			for j := 0; j < gs.Group(i).Count; j++ {
				if gs.GroupOf(gs.PageAt(i, j)) != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomGroupSet draws a random valid instance: 1..6 groups, geometric-ish
// divisibility chain, counts 1..40.
func randomGroupSet(rng *rand.Rand) *GroupSet {
	h := 1 + rng.Intn(6)
	groups := make([]Group, h)
	t := 1 + rng.Intn(6)
	for i := 0; i < h; i++ {
		groups[i] = Group{Time: t, Count: 1 + rng.Intn(40)}
		t *= 2 + rng.Intn(3)
	}
	return MustGroupSet(groups)
}
