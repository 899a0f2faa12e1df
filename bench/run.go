package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/netcast"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// run is one workload run: its inputs, the samples its timed repetitions
// produce and, when traced, the per-layer metrics.
type run struct {
	workload string
	seed     int64
	budget   time.Duration // measured time; the timed loop stops once it is spent
	toy      bool          // test-sized inputs
	tr       *tracer       // nil for an untraced run

	samples   map[string][]float64
	pooled    map[string]int
	steal     float64 // seconds taken out of timed work by netSeconds
	layers    map[string]float64
	attempted int64
	failed    int64
}

func newRun(workload string, seed int64, budget time.Duration, toy, traced bool) *run {
	r := &run{
		workload: workload,
		seed:     seed,
		budget:   budget,
		toy:      toy,
		samples:  map[string][]float64{},
		pooled:   map[string]int{},
		layers:   map[string]float64{},
	}
	if traced {
		r.tr = newTracer(workload)
	}
	return r
}

// gatef reports a failed correctness gate: the run keeps none of its
// numbers.
func gatef(format string, args ...any) error {
	return fmt.Errorf("gate: "+format, args...)
}

func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// samplePooled samples every workload metric of this run's workload that
// is a percentile of pool, taken over xs, which it sorts in place.
func (r *run) samplePooled(pool string, xs []float64) {
	sort.Float64s(xs)
	for _, wm := range workloadMetrics {
		if wm.workload == r.workload && wm.pool == pool {
			r.sample(wm.Name, stats.PercentileSorted(xs, wm.q))
			r.pooled[wm.Name] = len(xs)
		}
	}
}

// timedReps is the least number of timed repetitions a run makes, however
// short its budget.
func (r *run) timedReps() int {
	if r.toy {
		return 1
	}
	return 3
}

// repeat runs warm untimed repetitions, then timed ones until the budget is
// spent and at least timedReps have run. A set-up batch precedes every
// timed repetition, so set-up time is sampled under the same conditions,
// and each timed repetition samples the peak RSS of its batch and itself,
// so one repetition the garbage collector fell behind in does not set the
// run's value.
func (r *run) repeat(warm int, setup func() error, rep func(timed bool) error) error {
	r.tr.setRep(-1)
	for i := 0; i < warm; i++ {
		if err := rep(false); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; i < r.timedReps() || time.Since(start) < r.budget; i++ {
		r.tr.setRep(i)
		perRep := resetPeakRSS()
		if err := setup(); err != nil {
			return err
		}
		runtime.GC() // every repetition starts from the same clean heap, not the batch's garbage
		if err := rep(true); err != nil {
			return err
		}
		if perRep {
			r.sample("rss_peak_mb", peakRSSMiB())
		}
	}
	r.tr.setRep(replayRep)
	return nil
}

// replayRep tags the spans of the per-layer replays.
const replayRep = -2

func timedRep(rep int) bool   { return rep >= 0 }
func replayOnly(rep int) bool { return rep == replayRep }

// Paper Figure-4 instance: uniform group sizes, h=8, t1=4, c=2, at
// 1000 pages times a scale factor.
const (
	paperPages  = 1000
	paperGroups = 8
	paperT1     = 4
	paperRatio  = 2
)

// instance is a scaled paper instance with its PAMAD program at the knee,
// ceil(N_min/5) channels, analysed.
type instance struct {
	gs    *core.GroupSet
	freq  delaymodel.Frequencies
	place pamad.PlacementStats
	a     *core.Analysis
}

func (in *instance) prog() *core.Program { return in.a.Program() }

func paperGroupSet(factor int) (*core.GroupSet, error) {
	return workload.GroupSet(workload.Uniform, paperGroups, paperPages*factor, paperT1, paperRatio)
}

// build goes from instance parameters to an analysed program through the
// public layer functions, one span per call.
func (r *run) build(factor int) (*instance, error) {
	sp := r.tr.begin("workload.GroupSet", 0)
	gs, err := paperGroupSet(factor)
	r.tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	n := core.CeilDiv(gs.MinChannels(), 5)
	sp = r.tr.begin("pamad.Frequencies", 0)
	s, _, err := pamad.Frequencies(gs, n)
	r.tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("pamad.PlaceEvenly", 0)
	prog, st, err := pamad.PlaceEvenly(gs, s, n)
	r.tr.end(sp, 1)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("core.Analyze", 0)
	a := core.Analyze(prog)
	r.tr.end(sp, 1)
	return &instance{gs: gs, freq: s, place: st, a: a}, nil
}

// prepare builds the workload's instance once, untimed, and gates it.
func (r *run) prepare(factor int) (*instance, error) {
	in, err := r.build(factor)
	if err != nil {
		return nil, err
	}
	return in, placementGate(in.prog(), in.freq, in.place)
}

// Set-up batches last about 150 ms, several times longer than the
// sub-second swings in speed of a shared host, so each batch mean
// averages over them and the median of the batches does not flip between
// a fast and a slow mode. paperSetupBuilds is the batch at paper scale,
// where one build takes about 0.15 ms.
const paperSetupBuilds = 1000

// setupBatch times n builds and samples their mean as setup_s. The program
// built last passes the placement gate outside the timing.
func (r *run) setupBatch(n, factor int) (*instance, error) {
	var in *instance
	err := r.timeSetup(n, func() (err error) {
		in, err = r.build(factor)
		return err
	})
	if err != nil {
		return nil, err
	}
	return in, placementGate(in.prog(), in.freq, in.place)
}

// timeSetup runs build n times and samples the mean as setup_s. It
// collects garbage first, so the previous repetition's garbage is not
// collected on set-up's time.
func (r *run) timeSetup(n int, build func() error) error {
	runtime.GC()
	w := r.startWatch()
	for i := 0; i < n; i++ {
		if err := build(); err != nil {
			return err
		}
	}
	r.sample("setup_s", r.netSeconds(w)/float64(n))
	return nil
}

// stopwatch times work on the benchmark's own clock: wall time less the
// hypervisor's steal over the same stretch.
type stopwatch struct {
	t0    time.Time
	steal float64
}

func (r *run) startWatch() stopwatch { return stopwatch{t0: time.Now(), steal: stealSeconds()} }

// netSeconds is the wall time since w started less the steal in that
// time. Steal is the time the host ran other guests on this machine's
// virtual CPUs. On a shared virtual machine it is the main source of drift
// between runs, and it says nothing about the code. Over 200 serving
// repetitions on the machine the benchmark was sized on, each second of
// steal per virtual CPU added 1.07 s to a two-thread repetition's wall
// time. The run also keeps the steal it took out, for summary.json.
func (r *run) netSeconds(w stopwatch) float64 {
	wall := time.Since(w.t0).Seconds()
	steal := min(stealSeconds()-w.steal, wall/2)
	r.steal += steal
	return wall - steal
}

// userHZ is the unit of /proc/stat's times: ticks per second, 100 on
// every Linux architecture.
const userHZ = 100

// stealSeconds is the steal time since boot per virtual CPU: the steal
// column of /proc/stat's cpu line, over the number of cpuN lines. It is 0
// where the kernel does not report one, so wall time is left as it is.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	lines := strings.Split(string(data), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	cpus := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			cpus++
		}
	}
	return ticks / userHZ / float64(max(cpus, 1))
}

// resetPeakRSS restarts the kernel's peak resident set size from the
// current one (clear_refs 5), so a repetition's peak can be read on its
// own. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is this process's peak resident set size since start or the
// last resetPeakRSS: VmHWM of /proc/self/status, else ru_maxrss.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// placementGate checks a PAMAD program's bookkeeping, the law of
// conformance.SpillAccounting: the cycle follows the major-cycle law,
// every page of group i holds exactly S_i cells, and the empty cells are
// accounted for. It counts through the appearance index in O(cells);
// SpillAccounting scans the grid once per page, which takes minutes at
// ×100. (conformance.SlotOccupancy is the sufficient-channel law; at the
// knee PAMAD places fewer cells than the SUSC demand by design.)
func placementGate(prog *core.Program, s delaymodel.Frequencies, st pamad.PlacementStats) error {
	gs := prog.GroupSet()
	if err := s.Validate(gs); err != nil {
		return gatef("placement: %v", err)
	}
	if want := s.MajorCycle(gs, prog.Channels()); prog.Length() != want {
		return gatef("placement: major cycle %d, frequencies demand %d", prog.Length(), want)
	}
	ix := prog.AppearanceIndex()
	filled := 0
	for p := 0; p < gs.Pages(); p++ {
		id := core.PageID(p)
		got := ix.Count(id)
		if want := s[gs.GroupOf(id)]; got != want {
			return gatef("placement: page %d occupies %d cells, frequency is %d", p, got, want)
		}
		filled += got
	}
	total := s.TotalSlots(gs)
	if filled != total || prog.Filled() != total {
		return gatef("placement: %d cells indexed, %d filled, transmissions total %d", filled, prog.Filled(), total)
	}
	if st.Spills < 0 || st.Spills > total {
		return gatef("placement: Spills %d outside [0, %d]", st.Spills, total)
	}
	if empty := prog.Channels()*prog.Length() - total; st.EmptySlots != empty {
		return gatef("placement: EmptySlots %d, grid has %d empty cells", st.EmptySlots, empty)
	}
	return nil
}

// instanceLayers records the placement and index counts of a build.
func (r *run) instanceLayers(in *instance) {
	if r.tr == nil {
		return
	}
	r.layers["pamad.cells"] = float64(in.freq.TotalSlots(in.gs))
	r.layers["pamad.spills"] = float64(in.place.Spills)
	r.layers["pamad.empty_slots"] = float64(in.place.EmptySlots)
	ix := in.a.Index()
	cols := 0
	for p := 0; p < ix.Pages(); p++ {
		cols += ix.Count(core.PageID(p))
	}
	r.layers["core.index_cols"] = float64(cols)
}

// setupLayers turns the build spans of the repetitions keep selects into
// mean seconds per call.
func (r *run) setupLayers(keep func(rep int) bool) {
	if r.tr == nil {
		return
	}
	tot := r.tr.totals(keep)
	for name, layer := range map[string]string{
		"pamad.Frequencies": "pamad.frequencies_s",
		"pamad.PlaceEvenly": "pamad.place_s",
		"core.Analyze":      "core.analyze_s",
	} {
		if t := tot[name]; t.calls > 0 {
			r.layers[layer] = float64(t.selfNs) / 1e9 / float64(t.calls)
		}
	}
}

// sketchFor is the wait sketch the measurement engines use, widened to 64
// cycles so retried and re-planned waits stay in range.
func sketchFor(cycle int) (*stats.Sketch, error) {
	L := float64(cycle)
	return stats.NewSketch(L/(1<<20), 64*L, 0.01)
}

// waitsOf computes every request's fault-free wait against the analysed
// program, in stream order, for the fold replay.
func waitsOf(a *core.Analysis, stream workload.Stream) []float64 {
	L := float64(a.Program().Length())
	waits := make([]float64, 0, stream.Count())
	cur := stream.NewCursor()
	var req workload.Request
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&req) {
			waits = append(waits, a.NextAfter(req.Page, math.Mod(req.Arrival, L)))
		}
	}
	return waits
}

// replayLayers re-runs, one layer at a time, the work a serving repetition
// does inside the engines, so the trace can attribute it: one pass over the
// request stream, sim.MeasureStream on it, the program cast slot by slot
// into a fresh ring for slots slots with every (channel, slot) polled back,
// and waits folded into a sketch and running moments.
func (r *run) replayLayers(a *core.Analysis, stream workload.Stream, slots int64, fault netcast.FaultInjector, waits []float64) error {
	if r.tr == nil {
		return nil
	}
	r.tr.setRep(replayRep)
	prog := a.Program()
	count := stream.Count()

	sp := r.tr.begin("workload.Stream", 0)
	cur := stream.NewCursor()
	var req workload.Request
	seen := 0
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&req) {
			seen++
		}
	}
	r.tr.end(sp, int64(seen))

	sp = r.tr.begin("sim.MeasureStream", 0)
	_, err := sim.MeasureStream(a, stream)
	r.tr.end(sp, 1)
	if err != nil {
		return err
	}

	ring, err := netcast.NewBroadcastRing(prog.Channels(), 0)
	if err != nil {
		return err
	}
	caster, err := netcast.NewCaster(prog, ring, fault)
	if err != nil {
		return err
	}
	pub := r.tr.batch("netcast.CastSlot", 0)
	poll := r.tr.batch("netcast.Poll", 0)
	channels := prog.Channels()
	for abs := int64(0); abs < slots; abs++ {
		m := pub.mark()
		caster.CastSlot(int(abs))
		pub.done(m, 1)
		m = poll.mark()
		for ch := 0; ch < channels; ch++ {
			if _, st := ring.Poll(ch, abs); st == netcast.RingLost || st == netcast.RingPending {
				return fmt.Errorf("replay: poll (%d, %d) = %v", ch, abs, st)
			}
		}
		poll.done(m, int64(channels))
	}
	pub.flush()
	poll.flush()

	sk, err := sketchFor(prog.Length())
	if err != nil {
		return err
	}
	var mom stats.Online
	sp = r.tr.begin("stats.Fold", 0)
	for _, w := range waits {
		sk.Add(w)
		mom.Add(w)
	}
	r.tr.end(sp, int64(len(waits)))
	if sk.N() != int64(len(waits)) || mom.N() != sk.N() {
		return fmt.Errorf("replay: folded %d and %d of %d waits", sk.N(), mom.N(), len(waits))
	}

	tot := r.tr.totals(replayOnly)
	frames := float64(slots) * float64(channels)
	r.layers["workload.stream_ns_per_req"] = perCall(tot["workload.Stream"])
	r.layers["sim.measure_ns_per_req"] = float64(tot["sim.MeasureStream"].selfNs) / float64(max(count, 1))
	r.layers["netcast.publish_ns_per_frame"] = float64(tot["netcast.CastSlot"].selfNs) / math.Max(frames, 1)
	r.layers["netcast.frames_published"] = frames
	r.layers["netcast.poll_ns"] = perCall(tot["netcast.Poll"])
	r.layers["stats.fold_ns_per_req"] = perCall(tot["stats.Fold"])
	return nil
}

// perCall is a span total's self time per call, in ns.
func perCall(t spanTotal) float64 {
	if t.calls == 0 {
		return 0
	}
	return float64(t.selfNs) / float64(t.calls)
}

// timedMedianSeconds is the median duration of the spans named name in
// timed repetitions.
func (r *run) timedMedianSeconds(name string) float64 {
	return stats.Percentile(r.tr.durations(name, timedRep), 0.5) / 1e3
}

// runtimeLayers records the child process's garbage-collector totals.
func (r *run) runtimeLayers() {
	if r.tr == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layers["runtime.gc_cycles"] = float64(ms.NumGC)
	r.layers["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	r.layers["runtime.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
}

// quartiles returns q1 and q3 by the exclusive method of Python's
// statistics.quantiles(xs, n=4), so the spreads reported here are the
// ones a reader recomputing them in Python gets.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
