package sim

import (
	"math"
	"strings"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/mpb"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// scriptedFault is a Fault read from two optional scripts (a nil script
// injects nothing) with the default give-up bound.
type scriptedFault struct {
	lost   func(ch, abs int) bool
	jitter func(abs int) float64
}

func (f scriptedFault) Lost(ch, abs int) bool { return f.lost != nil && f.lost(ch, abs) }

func (f scriptedFault) JitterAt(abs int) float64 {
	if f.jitter == nil {
		return 0
	}
	return f.jitter(abs)
}

func (scriptedFault) MaxCycles() int { return DefaultMaxCycles }

func fig2() *core.GroupSet {
	return core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}})
}

func TestMeasureValidProgramHasZeroDelay(t *testing.T) {
	gs := fig2()
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Measure(prog, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgDelay != 0 || m.MissRatio != 0 {
		t.Errorf("valid program measured AvgD=%f miss=%f, want 0", m.AvgDelay, m.MissRatio)
	}
	if m.AvgWait <= 0 {
		t.Errorf("AvgWait = %f, want > 0", m.AvgWait)
	}
	if m.Requests != 2000 {
		t.Errorf("Requests = %d", m.Requests)
	}
}

// TestMeasureConvergesToClosedForm: the Monte-Carlo AvgD over many requests
// approaches the closed-form expectation from core.Analyze.
func TestMeasureConvergesToClosedForm(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2) // insufficient: nonzero delays
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 100000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureAnalyzed(a, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := a.AvgDelay()
	if want == 0 {
		t.Fatalf("expected nonzero closed-form delay, instance too easy")
	}
	if math.Abs(m.AvgDelay-want) > 0.05*want+0.05 {
		t.Errorf("measured AvgD %f vs closed form %f", m.AvgDelay, want)
	}
	if math.Abs(m.AvgWait-a.AvgWait()) > 0.05*a.AvgWait()+0.05 {
		t.Errorf("measured wait %f vs closed form %f", m.AvgWait, a.AvgWait())
	}
}

func TestMeasureValidation(t *testing.T) {
	gs := fig2()
	prog, _ := core.NewProgram(gs, 1, 4)
	if _, err := Measure(nil, nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := MeasureAnalyzed(nil, nil); err == nil {
		t.Error("nil analysis accepted")
	}
	if _, err := Measure(prog, []workload.Request{{Page: 99, Arrival: 0}}); err == nil {
		t.Error("out-of-range page accepted")
	}
	if _, err := Measure(prog, []workload.Request{{Page: 0, Arrival: -1}}); err == nil {
		t.Error("negative arrival accepted")
	}
	m, err := Measure(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 0 || m.AvgDelay != 0 {
		t.Error("empty request stream not zeroed")
	}
}

// TestRunScheduleAwareMatchesMeasure: the event-driven simulation with
// schedule-aware clients reproduces the fast sampler's waits exactly (same
// requests, no loss, no impatience).
func TestRunScheduleAwareMatchesMeasure(t *testing.T) {
	gs := fig2()
	for _, channels := range []int{1, 2, 3} {
		prog, _, err := pamad.Build(gs, channels)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Measure(prog, reqs)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Run(prog, reqs, Config{Mode: ScheduleAware})
		if err != nil {
			t.Fatal(err)
		}
		if slow.Served != len(reqs) || slow.Abandoned != 0 {
			t.Fatalf("N=%d: served %d abandoned %d, want %d/0", channels, slow.Served, slow.Abandoned, len(reqs))
		}
		if math.Abs(slow.AvgWait-fast.AvgWait) > 1e-9 {
			t.Errorf("N=%d: event-driven wait %f != sampler wait %f", channels, slow.AvgWait, fast.AvgWait)
		}
		if math.Abs(slow.AvgDelay-fast.AvgDelay) > 1e-9 {
			t.Errorf("N=%d: event-driven AvgD %f != sampler AvgD %f", channels, slow.AvgDelay, fast.AvgDelay)
		}
	}
}

// TestRunScanningIsSlowerButComplete: blind scanners find every page, with
// waits at least as long as schedule-aware clients'.
func TestRunScanningIsSlowerButComplete(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Run(prog, reqs, Config{Mode: ScheduleAware})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Run(prog, reqs, Config{Mode: Scanning})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Served != len(reqs) {
		t.Fatalf("scanning served %d of %d", scan.Served, len(reqs))
	}
	if scan.AvgWait < aware.AvgWait-1e-9 {
		t.Errorf("scanning wait %f beat schedule-aware %f", scan.AvgWait, aware.AvgWait)
	}
}

// TestRunImpatience: with a tight abandonment threshold, exactly the
// requests whose wait would exceed it disappear into the on-demand channel.
func TestRunImpatience(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 400, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Measure(prog, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var abandonedAt []float64
	out, err := Run(prog, reqs, Config{
		Mode:         ScheduleAware,
		AbandonAfter: 1.0,
		OnAbandon:    func(_ workload.Request, at float64) { abandonedAt = append(abandonedAt, at) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Served+out.Abandoned != len(reqs) {
		t.Fatalf("served %d + abandoned %d != %d", out.Served, out.Abandoned, len(reqs))
	}
	wantAbandoned := int(fast.MissRatio*float64(len(reqs)) + 0.5)
	if out.Abandoned != wantAbandoned {
		t.Errorf("abandoned %d, want %d (the deadline-missing requests)", out.Abandoned, wantAbandoned)
	}
	if len(abandonedAt) != out.Abandoned {
		t.Errorf("OnAbandon fired %d times for %d abandonments", len(abandonedAt), out.Abandoned)
	}
	// Survivors were all served within their expected time.
	if out.MissRatio != 0 {
		t.Errorf("served requests have miss ratio %f, want 0", out.MissRatio)
	}
}

func TestRunWithFrameLoss(t *testing.T) {
	gs := fig2()
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	dropEvery5th := scriptedFault{lost: func(_, abs int) bool { return abs%5 == 4 }}
	out, err := Run(prog, reqs, Config{Mode: ScheduleAware, Fault: dropEvery5th})
	if err != nil {
		t.Fatal(err)
	}
	if out.Served != len(reqs) {
		t.Fatalf("served %d of %d under loss", out.Served, len(reqs))
	}
	lossless, err := Run(prog, reqs, Config{Mode: ScheduleAware})
	if err != nil {
		t.Fatal(err)
	}
	if out.AvgWait < lossless.AvgWait-1e-9 {
		t.Errorf("lossy wait %f beat lossless %f", out.AvgWait, lossless.AvgWait)
	}
}

func TestRunValidation(t *testing.T) {
	gs := fig2()
	prog, _, err := mpb.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, nil, Config{}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Run(prog, nil, Config{Mode: ClientMode(7)}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(prog, []workload.Request{{Page: -1}}, Config{}); err == nil {
		t.Error("bad page accepted")
	}
	if _, err := Run(prog, []workload.Request{{Page: 0, Arrival: -1}}, Config{}); err == nil {
		t.Error("bad arrival accepted")
	}
	out, err := Run(prog, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Served != 0 || out.Requests != 0 {
		t.Error("empty run not zeroed")
	}
}

func TestRingTracer(t *testing.T) {
	if _, err := NewRingTracer(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	r, err := NewRingTracer(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: EventServe, Time: float64(i), Client: i})
	}
	if r.Total() != 5 {
		t.Errorf("Total = %d, want 5", r.Total())
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("retained %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Client != i+2 {
			t.Errorf("Events() = %v, want clients 2,3,4 oldest-first", events)
			break
		}
	}
	s := r.String()
	if !strings.Contains(s, "evicted") || !strings.Contains(s, "serve") {
		t.Errorf("String() = %q", s)
	}
}

func TestEventKindString(t *testing.T) {
	wants := map[EventKind]string{
		EventArrive: "arrive", EventTune: "tune", EventServe: "serve",
		EventAbandon: "abandon", EventKind(99): "EventKind(99)",
	}
	for k, want := range wants {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

// TestRunTracesClients: every client produces an arrive, a tune and a
// terminal (serve/abandon) event, in time order.
func TestRunTracesClients(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	tracer, err := NewRingTracer(10000)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(prog, reqs, Config{
		Mode:         ScheduleAware,
		AbandonAfter: 2.0,
		Trace:        tracer.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrives := map[int]int{}
	terminal := map[int]int{}
	var prev float64 = -1
	for _, e := range tracer.Events() {
		if e.Time < prev-1e-9 {
			t.Fatalf("trace out of order at %v", e)
		}
		prev = e.Time
		switch e.Kind {
		case EventArrive:
			arrives[e.Client]++
		case EventServe, EventAbandon:
			terminal[e.Client]++
		}
	}
	for i := range reqs {
		if arrives[i] != 1 {
			t.Errorf("client %d arrived %d times", i, arrives[i])
		}
		if terminal[i] != 1 {
			t.Errorf("client %d has %d terminal events", i, terminal[i])
		}
	}
	if out.Served+out.Abandoned != len(reqs) {
		t.Errorf("accounting mismatch")
	}
}

// TestPoissonStreamAcrossCycles: a Poisson arrival stream spanning many
// cycles runs through both the fast sampler and the event simulation, and
// the two agree exactly.
func TestPoissonStreamAcrossCycles(t *testing.T) {
	gs := fig2()
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GeneratePoissonRequests(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 400, Seed: 14},
		Rate:          0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := reqs[len(reqs)-1].Arrival
	if last <= float64(prog.Length()) {
		t.Fatalf("stream too short to span cycles: last arrival %f", last)
	}
	fast, err := Measure(prog, reqs)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(prog, reqs, Config{Mode: ScheduleAware})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Served != len(reqs) {
		t.Fatalf("served %d of %d", slow.Served, len(reqs))
	}
	if math.Abs(slow.AvgWait-fast.AvgWait) > 1e-9 {
		t.Errorf("event wait %f != sampler wait %f on a multi-cycle stream", slow.AvgWait, fast.AvgWait)
	}
}

// TestRunWithSlotJitter: jittered slot clocking delays every delivery by
// at most the jitter bound, so schedule-aware clients still all get
// served and the average wait moves by less than one full slot.
func TestRunWithSlotJitter(t *testing.T) {
	gs := fig2()
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(prog, reqs, Config{Mode: ScheduleAware})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := Run(prog, reqs, Config{
		Mode:  ScheduleAware,
		Fault: scriptedFault{jitter: func(abs int) float64 { return float64(abs%2) * 0.4 }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jit.Served != len(reqs) {
		t.Fatalf("jittered run served %d of %d", jit.Served, len(reqs))
	}
	if jit.AvgWait < base.AvgWait {
		t.Errorf("jitter shortened AvgWait: %f < %f", jit.AvgWait, base.AvgWait)
	}
	if jit.AvgWait > base.AvgWait+0.5 {
		t.Errorf("jitter exceeded its bound: %f > %f + 0.5", jit.AvgWait, base.AvgWait)
	}
}
