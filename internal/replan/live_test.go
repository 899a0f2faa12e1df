package replan

import (
	"math/rand"
	"runtime"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/workload"
)

// liveMix drives an engine through the live-catalog edit mix on the
// paper instance ×10 (10^4 pages in 8 groups, t_1 = 4, ratio 2, at
// ceil(N_min/5) channels): every 100th edit toggles group 8's expected
// time between 512 and 1024, a rebuild; every other edit adds or retires
// a page of a seeded random group, never shrinking a group below its
// initial size.
type liveMix struct {
	eng *Engine
	gs0 *core.GroupSet
	rng *rand.Rand
	k   int
}

func newLiveMix(tb testing.TB, seed int64) *liveMix {
	tb.Helper()
	gs, err := workload.GroupSet(workload.Uniform, 8, 10_000, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := New(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		tb.Fatal(err)
	}
	return &liveMix{eng: eng, gs0: gs, rng: rand.New(rand.NewSource(seed))}
}

// next applies the mix's next edit.
func (m *liveMix) next(tb testing.TB) *Delta {
	m.k++
	gs := m.eng.GroupSet()
	var d *Delta
	var err error
	if m.k%100 == 0 {
		t := 1024
		if gs.Group(7).Time == 1024 {
			t = 512
		}
		d, err = m.eng.SetExpectedTime(7, t)
	} else if g := m.rng.Intn(gs.Len()); gs.Group(g).Count > m.gs0.Group(g).Count && m.rng.Intn(2) == 0 {
		d, err = m.eng.RetirePage(g)
	} else {
		d, err = m.eng.AddPage(g)
	}
	if err != nil {
		tb.Fatalf("edit %d: %v", m.k, err)
	}
	return d
}

// gridBytes is one grid of PageIDs of eng's live program: channels ×
// t_major × 4 B, the allocation bound of a suffix edit.
func gridBytes(eng *Engine) uint64 {
	prog := eng.Program()
	return uint64(prog.Channels() * prog.Length() * 4)
}

// TestSuffixEditBytes guards the allocation-free suffix replay: once the
// engine's arenas are warm, a suffix edit allocates less than one grid of
// PageIDs — the Delta and the edited instance's small vectors, not
// per-cell state. Snapshot is not called.
func TestSuffixEditBytes(t *testing.T) {
	m := newLiveMix(t, 1)
	for i := 0; i < 200; i++ {
		m.next(t)
	}
	var before, after runtime.MemStats
	var bytes uint64
	suffix := 0
	for suffix < 100 {
		runtime.ReadMemStats(&before)
		d := m.next(t)
		runtime.ReadMemStats(&after)
		if d.Kind == KindSuffix {
			bytes += after.TotalAlloc - before.TotalAlloc
			suffix++
		}
	}
	if per, grid := bytes/uint64(suffix), gridBytes(m.eng); per >= grid {
		t.Fatalf("a suffix edit allocates %d B on average over %d edits; want < one grid of PageIDs (%d B)",
			per, suffix, grid)
	}
}

// TestFirstSuffixEditBytes holds the first edit after New to the same
// bound with no warm-up: New sizes every buffer a replay uses, so even a
// replay of the whole placement (a page retired from group 1) grows
// nothing.
func TestFirstSuffixEditBytes(t *testing.T) {
	m := newLiveMix(t, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := m.eng.RetirePage(0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindSuffix || d.FromGroup != 0 {
		t.Fatalf("RetirePage(0) after New was a %v edit from group %d, want a suffix replay from group 0", d.Kind, d.FromGroup)
	}
	if bytes, grid := after.TotalAlloc-before.TotalAlloc, gridBytes(m.eng); bytes >= grid {
		t.Fatalf("the first suffix edit allocates %d B; want < one grid of PageIDs (%d B)", bytes, grid)
	}
}

// BenchmarkReplanLiveEdits runs the live-catalog edit mix at ×10, one
// edit per op: a rebuild every 100th op, suffix replays and last-group
// appends otherwise.
func BenchmarkReplanLiveEdits(b *testing.B) {
	m := newLiveMix(b, 1)
	var kinds [4]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kinds[m.next(b).Kind]++
	}
	b.StopTimer()
	b.ReportMetric(float64(kinds[KindSuffix])/float64(b.N), "suffix/op")
}
