package sim

import (
	"math"
	"strings"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

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
