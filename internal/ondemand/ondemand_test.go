package ondemand

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// at builds n submissions at instant t with no deadline.
func at(t float64, n int) []Submission {
	subs := make([]Submission, n)
	for i := range subs {
		subs[i] = Submission{At: t, Request: Request{Deadline: math.MaxFloat64, Tag: uint64(i)}}
	}
	return subs
}

// serve runs subs through a server configured by cfg.
func serve(t *testing.T, subs []Submission, cfg Config) Metrics {
	t.Helper()
	m, err := Serve(subs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServeValidation(t *testing.T) {
	for _, cfg := range []Config{
		{ServiceTime: 0},
		{ServiceTime: math.NaN()},
		{ServiceTime: 1, Workers: -1},
		{ServiceTime: 1, Discipline: Discipline(9)},
		{ServiceTime: 1, QueueLimit: -1},
	} {
		if _, err := Serve(nil, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	for _, subs := range [][]Submission{
		{{At: 2}, {At: 1}},
		{{At: math.NaN()}},
	} {
		if _, err := Serve(subs, Config{ServiceTime: 1}); err == nil {
			t.Errorf("submissions %+v accepted", subs)
		}
	}
}

func TestSingleWorkerFCFS(t *testing.T) {
	// Three requests at t=0: responses complete at 2, 4, 6.
	var last float64
	m := serve(t, at(0, 3), Config{ServiceTime: 2, OnComplete: func(_ Request, _, completed float64) { last = completed }})
	if m.Submitted != 3 || m.Completed != 3 || m.Rejected != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if want := (2.0 + 4.0 + 6.0) / 3; math.Abs(m.AvgResponse-want) > 1e-12 {
		t.Errorf("AvgResponse = %f, want %f", m.AvgResponse, want)
	}
	if m.MaxQueueLen != 2 {
		t.Errorf("MaxQueueLen = %d, want 2", m.MaxQueueLen)
	}
	if last != 6 {
		t.Errorf("finished at %f, want 6", last)
	}
}

func TestParallelWorkers(t *testing.T) {
	m := serve(t, at(0, 3), Config{ServiceTime: 2, Workers: 3})
	if m.AvgResponse != 2 {
		t.Errorf("AvgResponse = %f, want 2 (all parallel)", m.AvgResponse)
	}
	if m.MaxQueueLen != 0 {
		t.Errorf("MaxQueueLen = %d, want 0", m.MaxQueueLen)
	}
}

func TestEDFOrdering(t *testing.T) {
	// The first occupies the worker; the rest queue with shuffled
	// deadlines, and EDF serves them 10, 20, 30, 40, 50 after it.
	subs := at(0, 6)
	for i, d := range []float64{50, 10, 30, 20, 40} {
		subs[i+1].Deadline = d
	}
	var order []float64
	m := serve(t, subs, Config{ServiceTime: 1, Discipline: EDF, OnComplete: func(req Request, _, _ float64) {
		order = append(order, req.Deadline)
	}})
	if m.Completed != 6 {
		t.Fatalf("completed %d", m.Completed)
	}
	want := []float64{math.MaxFloat64, 10, 20, 30, 40, 50}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion deadlines %v, want %v", order, want)
		}
	}
	// Completions at 1..6 all meet their generous deadlines.
	if m.DeadlineMisses != 0 {
		t.Errorf("misses = %d, want 0", m.DeadlineMisses)
	}
}

func TestEDFBeatsFCFSOnMisses(t *testing.T) {
	run := func(d Discipline) Metrics {
		subs := at(0, 3)
		subs[1].Deadline = 100 // loose
		subs[2].Deadline = 4.5 // tight: must be next
		return serve(t, subs, Config{ServiceTime: 2, Discipline: d})
	}
	fcfs := run(FCFS)
	edf := run(EDF)
	// FCFS serves the loose request first: tight one completes at 6 > 4.5.
	if fcfs.DeadlineMisses != 1 {
		t.Errorf("FCFS misses = %d, want 1", fcfs.DeadlineMisses)
	}
	// EDF serves the tight one at 2..4 < 4.5: no miss.
	if edf.DeadlineMisses != 0 {
		t.Errorf("EDF misses = %d, want 0", edf.DeadlineMisses)
	}
}

func TestQueueLimitRejects(t *testing.T) {
	m := serve(t, at(0, 5), Config{ServiceTime: 1, QueueLimit: 2})
	// 1 in service + 2 queued are accepted.
	if m.Rejected != 2 || m.Completed != 3 || m.Submitted != 5 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestCongestionGrowsWithLoad reproduces the paper's motivating effect:
// pushing the arrival rate past service capacity blows response times up.
func TestCongestionGrowsWithLoad(t *testing.T) {
	response := func(interval float64) float64 {
		subs := make([]Submission, 200)
		for i := range subs {
			subs[i] = Submission{At: float64(i) * interval, Request: Request{Deadline: math.MaxFloat64}}
		}
		return serve(t, subs, Config{ServiceTime: 1}).AvgResponse
	}
	light := response(2.0) // utilisation 0.5
	heavy := response(0.5) // utilisation 2.0: overload
	if light != 1 {
		t.Errorf("light-load response = %f, want exactly the service time 1", light)
	}
	if heavy < 10*light {
		t.Errorf("overload response %f not much larger than light-load %f", heavy, light)
	}
}

func TestQueueLengthAccounting(t *testing.T) {
	// Queue holds 1 request during [0,2), 0 during [2,4): avg = 0.5.
	m := serve(t, at(0, 2), Config{ServiceTime: 2})
	if math.Abs(m.AvgQueueLen-0.5) > 1e-12 {
		t.Errorf("AvgQueueLen = %f, want 0.5", m.AvgQueueLen)
	}
	if m.Submitted != m.Completed {
		t.Errorf("server not drained: %+v", m)
	}
}

// Property: work conservation — with unbounded queue everything submitted
// eventually completes, and responses are >= service time.
func TestWorkConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		cfg := Config{ServiceTime: 0.5 + rng.Float64(), Workers: 1 + rng.Intn(3), Discipline: Discipline(rng.Intn(2))}
		subs := make([]Submission, 1+rng.Intn(100))
		for i := range subs {
			subs[i] = Submission{At: rng.Float64() * 50, Request: Request{Deadline: rng.Float64() * 100}}
		}
		sort.SliceStable(subs, func(i, j int) bool { return subs[i].At < subs[j].At })
		m := serve(t, subs, cfg)
		if m.Completed != len(subs) || m.Rejected != 0 {
			t.Fatalf("trial %d: completed %d of %d", trial, m.Completed, len(subs))
		}
		if m.Response.Min < cfg.ServiceTime-1e-9 {
			t.Fatalf("trial %d: response %f below service time", trial, m.Response.Min)
		}
	}
}

func TestOnCompleteHook(t *testing.T) {
	type completion struct {
		tag                  uint64
		submitted, completed float64
	}
	var got []completion
	subs := at(0, 2)
	subs[0].Tag, subs[1].Tag = 7, 8
	serve(t, subs, Config{
		ServiceTime: 2,
		OnComplete: func(req Request, submitted, completed float64) {
			got = append(got, completion{req.Tag, submitted, completed})
		},
	})
	if len(got) != 2 {
		t.Fatalf("OnComplete fired %d times, want 2", len(got))
	}
	if got[0].tag != 7 || got[0].submitted != 0 || got[0].completed != 2 {
		t.Errorf("first completion = %+v", got[0])
	}
	if got[1].tag != 8 || got[1].submitted != 0 || got[1].completed != 4 {
		t.Errorf("second completion = %+v", got[1])
	}
}

// TestZeroRequestMetrics: a server that never saw a request must report a
// well-defined all-zero snapshot, not NaNs from empty-slice means.
func TestZeroRequestMetrics(t *testing.T) {
	m := serve(t, nil, Config{ServiceTime: 1})
	if m != (Metrics{}) {
		t.Fatalf("zero-request metrics = %+v, want zero value", m)
	}
	if math.IsNaN(m.AvgResponse) || math.IsNaN(m.AvgQueueLen) {
		t.Fatal("NaN leaked into empty metrics")
	}
}

// TestDeadlineMissBoundary pins the miss semantics: a completion exactly at
// its deadline is on time (strict now > Deadline), and the nearest float
// below the completion instant misses.
func TestDeadlineMissBoundary(t *testing.T) {
	run := func(deadline float64) Metrics {
		return serve(t, []Submission{{Request: Request{Deadline: deadline}}}, Config{ServiceTime: 2})
	}
	if m := run(2); m.DeadlineMisses != 0 {
		t.Errorf("completion exactly at deadline counted as miss: %+v", m)
	}
	if m := run(math.Nextafter(2, 0)); m.DeadlineMisses != 1 {
		t.Errorf("completion just past deadline not counted: %+v", m)
	}
}

// TestRejectionAccounting: a rejected request counts as submitted (the
// uplink saw it) and never enters the queue, so conservation holds, and
// once the backlog drains the bound no longer binds.
func TestRejectionAccounting(t *testing.T) {
	subs := append(at(0, 4), Submission{At: 10, Request: Request{Deadline: math.MaxFloat64}})
	m := serve(t, subs, Config{ServiceTime: 1, QueueLimit: 1})
	// At t=0: 1 in service, 1 queued, 2 rejected; the t=10 one is served.
	if m.Rejected != 2 {
		t.Errorf("rejected %d, want 2", m.Rejected)
	}
	if m.Submitted != 5 || m.Completed != 3 || m.Submitted != m.Completed+m.Rejected {
		t.Errorf("metrics = %+v, want 5 submitted / 3 completed", m)
	}
	if m.MaxQueueLen != 1 {
		t.Errorf("MaxQueueLen = %d, want 1 (rejections never enter the queue)", m.MaxQueueLen)
	}
}

// TestSimultaneousCompletionOrder: workers finishing at the same instant
// fire OnComplete in service-start order, not in heap accident order.
func TestSimultaneousCompletionOrder(t *testing.T) {
	var order []uint64
	subs := at(0, 3)
	for i, tag := range []uint64{11, 22, 33} {
		subs[i].Tag = tag
	}
	serve(t, subs, Config{
		ServiceTime: 2,
		Workers:     3,
		OnComplete: func(req Request, _, completed float64) {
			if completed != 2 {
				t.Errorf("tag %d completed at %f, want 2", req.Tag, completed)
			}
			order = append(order, req.Tag)
		},
	})
	if len(order) != 3 || order[0] != 11 || order[1] != 22 || order[2] != 33 {
		t.Fatalf("completion order %v, want [11 22 33]", order)
	}
}
