package sim

import (
	"errors"
	"math"
	"sort"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// legacyMeasure is the pre-streaming MeasureAnalyzed loop, kept verbatim as
// the oracle the streaming engine is pinned against: materialise every
// sample, naive means, full sorts.
func legacyMeasure(t *testing.T, a *core.Analysis, reqs []workload.Request) *Metrics {
	t.Helper()
	gs := a.Program().GroupSet()
	L := float64(a.Program().Length())
	waits := make([]float64, 0, len(reqs))
	delays := make([]float64, 0, len(reqs))
	misses := 0
	for _, r := range reqs {
		wait := a.NextAfter(r.Page, math.Mod(r.Arrival, L))
		delay := wait - float64(gs.TimeOf(r.Page))
		if delay < 0 {
			delay = 0
		} else if delay > 0 {
			misses++
		}
		waits = append(waits, wait)
		delays = append(delays, delay)
	}
	m := &Metrics{
		Requests: len(reqs),
		AvgWait:  stats.Mean(waits),
		AvgDelay: stats.Mean(delays),
		Wait:     stats.Summarize(waits),
		Delay:    stats.Summarize(delays),
	}
	if len(reqs) > 0 {
		m.MissRatio = float64(misses) / float64(len(reqs))
	}
	return m
}

// requireBitwiseCore asserts the exact fields of two Metrics — everything
// except the Summary quantiles, which moved from exact sorts to sketch
// estimates — are bit-for-bit equal.
func requireBitwiseCore(t *testing.T, label string, got, want *Metrics) {
	t.Helper()
	type field struct {
		name      string
		got, want float64
	}
	fields := []field{
		{"AvgWait", got.AvgWait, want.AvgWait},
		{"AvgDelay", got.AvgDelay, want.AvgDelay},
		{"MissRatio", got.MissRatio, want.MissRatio},
		{"Wait.Mean", got.Wait.Mean, want.Wait.Mean},
		{"Wait.StdDev", got.Wait.StdDev, want.Wait.StdDev},
		{"Wait.Min", got.Wait.Min, want.Wait.Min},
		{"Wait.Max", got.Wait.Max, want.Wait.Max},
		{"Delay.Mean", got.Delay.Mean, want.Delay.Mean},
		{"Delay.StdDev", got.Delay.StdDev, want.Delay.StdDev},
		{"Delay.Min", got.Delay.Min, want.Delay.Min},
		{"Delay.Max", got.Delay.Max, want.Delay.Max},
	}
	if got.Requests != want.Requests {
		t.Errorf("%s: Requests = %d, want %d", label, got.Requests, want.Requests)
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: %s = %v (%#x), want %v (%#x)", label, f.name,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
}

// TestMeasureStreamPinsLegacySampler: the streaming engine reproduces the
// historical materialise-and-sort sampler bit for bit on every exact field,
// on both the binary-search path (unsorted arrivals) and the cursor path
// (sorted arrivals), and its sketch quantiles track the exact ones.
func TestMeasureStreamPinsLegacySampler(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2) // insufficient channels: nonzero delays
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)

	uniform, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := workload.GeneratePoissonRequests(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 3000, Seed: 6},
		Rate:          0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sortedUniform := append([]workload.Request(nil), uniform...)
	sort.Slice(sortedUniform, func(i, j int) bool {
		return sortedUniform[i].Arrival < sortedUniform[j].Arrival
	})

	cases := []struct {
		label  string
		reqs   []workload.Request
		sorted bool
	}{
		{"uniform-unsorted", uniform, false},
		{"poisson-sorted", poisson, true}, // multi-cycle arrivals: cursor wraps
		{"uniform-sorted", sortedUniform, true},
	}
	for _, tc := range cases {
		stream := workload.SliceStream(tc.reqs)
		if stream.Sorted() != tc.sorted {
			t.Fatalf("%s: Sorted() = %v, want %v", tc.label, stream.Sorted(), tc.sorted)
		}
		want := legacyMeasure(t, a, tc.reqs)
		got, err := MeasureAnalyzed(a, tc.reqs)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseCore(t, tc.label, got, want)
		// Sketch quantiles: within 2% of the exact sorted percentiles (1%
		// bucket width plus closest-rank vs interpolation slack), except
		// that sub-resolution exact values must report 0.
		checkQ := func(name string, gotQ, exactQ float64) {
			lo := float64(prog.Length()) / (1 << 20)
			if exactQ <= lo {
				if gotQ != 0 {
					t.Errorf("%s: %s = %g for sub-resolution exact %g, want 0", tc.label, name, gotQ, exactQ)
				}
				return
			}
			if gotQ < exactQ/1.03-1e-9 || gotQ > exactQ*1.03+1e-9 {
				t.Errorf("%s: %s = %g, exact %g", tc.label, name, gotQ, exactQ)
			}
		}
		checkQ("Wait.P50", got.Wait.P50, want.Wait.P50)
		checkQ("Wait.P95", got.Wait.P95, want.Wait.P95)
		checkQ("Wait.P99", got.Wait.P99, want.Wait.P99)
		checkQ("Delay.P99", got.Delay.P99, want.Delay.P99)
	}
}

// bigStreams builds multi-shard streams (several ShardSize shards) of each
// flavour over the paper's default-scale instance.
func bigStreams(t *testing.T, gs *core.GroupSet, cycleLen, count int) map[string]workload.Stream {
	t.Helper()
	gen, err := workload.NewStream(gs, cycleLen, workload.RequestConfig{Count: count, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.NewStream(gs, cycleLen, workload.RequestConfig{
		Count: count, Seed: 12, Choice: workload.ZipfPages, Theta: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: count, Seed: 13},
		Rate:          1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]workload.Stream{"uniform": gen, "zipf": zipf, "poisson": poisson}
}

// TestMeasureParallelDeterminism: on the paper's default instance, 1, 2 and
// 8 workers produce Metrics bit-for-bit equal to the serial wrapper, for
// generated (multi-shard) and slice-backed streams alike.
func TestMeasureParallelDeterminism(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	const count = 3*workload.ShardSize + 1234 // 4 shards, last one ragged

	streams := bigStreams(t, gs, prog.Length(), count)
	// A slice stream too: materialise the uniform stream through a cursor.
	reqs := make([]workload.Request, 0, count)
	cur := streams["uniform"].NewCursor()
	for k := 0; k < streams["uniform"].Shards(); k++ {
		cur.Seek(k)
		var r workload.Request
		for cur.Next(&r) {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) != count {
		t.Fatalf("cursor yielded %d of %d requests", len(reqs), count)
	}
	streams["slice"] = workload.SliceStream(reqs)

	for label, stream := range streams {
		serial, err := MeasureStream(a, stream)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Requests != count {
			t.Fatalf("%s: measured %d requests", label, serial.Requests)
		}
		for _, workers := range []int{1, 2, 8} {
			par, err := MeasureParallel(a, stream, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseCore(t, label, par, serial)
			for _, q := range []struct {
				name      string
				got, want float64
			}{
				{"Wait.P50", par.Wait.P50, serial.Wait.P50},
				{"Wait.P95", par.Wait.P95, serial.Wait.P95},
				{"Wait.P99", par.Wait.P99, serial.Wait.P99},
				{"Delay.P50", par.Delay.P50, serial.Delay.P50},
				{"Delay.P95", par.Delay.P95, serial.Delay.P95},
				{"Delay.P99", par.Delay.P99, serial.Delay.P99},
			} {
				if math.Float64bits(q.got) != math.Float64bits(q.want) {
					t.Errorf("%s workers=%d: %s = %v, serial %v", label, workers, q.name, q.got, q.want)
				}
			}
		}
	}
}

// TestMeasureParallelMatchesLegacyOnGeneratedStream: a generated single-
// shard stream reproduces GenerateRequests + the legacy loop bit for bit —
// the contract that keeps Figure 5 checksums frozen.
func TestMeasureParallelMatchesLegacyOnGeneratedStream(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	cfg := workload.RequestConfig{Count: 3000, Seed: 77}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := legacyMeasure(t, a, reqs)
	got, err := MeasureStream(a, stream)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseCore(t, "generated", got, want)
}

// TestMeasureParallelRace exercises the engine under many workers and all
// stream flavours; its real assertions run under `go test -race` in CI.
func TestMeasureParallelRace(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	for label, stream := range bigStreams(t, gs, prog.Length(), 2*workload.ShardSize+99) {
		m, err := MeasureParallel(a, stream, 0) // GOMAXPROCS workers
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if m.Requests != stream.Count() || m.AvgWait <= 0 {
			t.Errorf("%s: implausible metrics %+v", label, m)
		}
	}
}

// TestMeasureParallelErrors: validation failures surface the lowest global
// request index regardless of worker count, and nil inputs are rejected.
func TestMeasureParallelErrors(t *testing.T) {
	gs := fig2()
	prog, _ := core.NewProgram(gs, 1, 4)
	a := core.Analyze(prog)
	if _, err := MeasureStream(nil, workload.SliceStream(nil)); err == nil {
		t.Error("nil analysis accepted")
	}
	if _, err := MeasureStream(a, nil); err == nil {
		t.Error("nil stream accepted")
	}

	reqs := make([]workload.Request, workload.ShardSize+10)
	for i := range reqs {
		reqs[i] = workload.Request{Page: 0, Arrival: float64(i % 4)}
	}
	reqs[workload.ShardSize+3] = workload.Request{Page: 99, Arrival: 0}
	for _, workers := range []int{1, 4} {
		_, err := MeasureParallel(a, workload.SliceStream(reqs), workers)
		if !errors.Is(err, core.ErrPageRange) {
			t.Fatalf("workers=%d: err = %v, want ErrPageRange", workers, err)
		}
	}
	reqs[workload.ShardSize+3] = workload.Request{Page: 0, Arrival: -0.5}
	if _, err := MeasureParallel(a, workload.SliceStream(reqs), 4); !errors.Is(err, core.ErrSlotRange) {
		t.Fatalf("err = %v, want ErrSlotRange", err)
	}
	// Two bad shards: the lower-indexed one wins deterministically.
	reqs[5] = workload.Request{Page: -1, Arrival: 0}
	for _, workers := range []int{1, 4} {
		_, err := MeasureParallel(a, workload.SliceStream(reqs), workers)
		if !errors.Is(err, core.ErrPageRange) {
			t.Fatalf("workers=%d: err = %v, want ErrPageRange from shard 0", workers, err)
		}
	}

	m, err := MeasureStream(a, workload.SliceStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 0 || m.AvgDelay != 0 {
		t.Error("empty stream not zeroed")
	}
}

// TestMeasureAllocsIndependentOfRequestCount pins the O(1) sample memory
// claim: the allocation count of a measurement does not grow with the
// request count (only with worker count and shard-table size, both fixed
// here by using the same worker count at both sizes).
func TestMeasureAllocsIndependentOfRequestCount(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting over multi-shard streams is slow")
	}
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	allocs := func(count int) float64 {
		stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: count, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(2, func() {
			if _, err := MeasureParallel(a, stream, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(2 * workload.ShardSize)
	big := allocs(8 * workload.ShardSize)
	// The shard-partial table is the only thing that scales (one slice
	// either way); everything else must be flat.
	if big > small+2 {
		t.Errorf("allocs grew with request count: %v at 128K vs %v at 512K requests", small, big)
	}
}

// TestNextSortedAgreesWithNextAfter cross-checks the cursor against the
// binary search on adversarial arrival sequences (wraps, repeats, exact
// column hits).
func TestNextSortedAgreesWithNextAfter(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	L := float64(prog.Length())
	for id := 0; id < gs.Pages(); id++ {
		cols := a.Index().Columns(core.PageID(id))
		if len(cols) == 0 {
			continue
		}
		cursors := NewCursors(true, gs.Pages())
		// Non-decreasing instants with repeats and exact hits, then a wrap.
		us := []float64{0, 0, 0.5, float64(cols[0]), float64(cols[0]), L - 0.25}
		us = append(us, 0.125, 1, L-1e-9) // wrapped cycle
		for _, u := range us {
			got := WaitAt(cols, NextIndex(cursors, core.PageID(id), cols, u), u, L)
			want := a.NextAfter(core.PageID(id), u)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("page %d u=%v: cursor %v, NextAfter %v", id, u, got, want)
			}
		}
	}
}
