package loadgen

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// scenario builds a paper-style instance, its PAMAD program at the knee
// channel count, and a request stream over it.
func scenario(tb testing.TB, pages, count int, choice workload.PageChoice, theta float64, seed int64) (*core.Analysis, workload.Stream) {
	tb.Helper()
	gs, err := workload.GroupSet(workload.Uniform, 6, pages, 4, 2)
	if err != nil {
		tb.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count:  count,
		Seed:   seed,
		Choice: choice,
		Theta:  theta,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return core.Analyze(prog), stream
}

// allFaults is the canonical every-class fault mix (the airbench chaos
// baseline's), exercising stall, i.i.d. and burst loss, corruption,
// churn, jitter and the degradation replan at once.
func allFaults(seed int64) chaos.Config {
	return chaos.Config{
		Seed:       seed,
		Loss:       0.10,
		Corrupt:    0.02,
		Churn:      0.05,
		Jitter:     0.25,
		StallEvery: 64,
		StallFor:   4,
		Burst:      &chaos.BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8},
		Replan:     true,
	}
}

// TestRunStreamZeroFaultMatchesMeasureStream pins the transport-identity
// anchor: with faults off, driving clients through the broadcast ring
// reproduces sim.MeasureStream bit for bit — metrics, and the chaos
// engine's trace digest too.
func TestRunStreamZeroFaultMatchesMeasureStream(t *testing.T) {
	a, stream := scenario(t, 300, workload.ShardSize+777, workload.UniformPages, 0, 11)
	res, err := RunStream(context.Background(), a, stream, chaos.Config{}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MeasureStream(a, stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != *m {
		t.Errorf("metrics diverge from sim.MeasureStream:\n ring: %+v\n  sim: %+v", res.Metrics, *m)
	}
	if res.Ledger != (chaos.Ledger{}) {
		t.Errorf("zero-fault run has non-empty ledger: %+v", res.Ledger)
	}
	want, err := chaos.RunParallel(a, stream, chaos.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceDigest != want.TraceDigest {
		t.Errorf("trace digest %016x, chaos engine %016x", res.TraceDigest, want.TraceDigest)
	}
}

// TestRunStreamMatchesChaos pins full-Result bit-identity against the
// chaos measurement engine across fault mixes and page-choice models —
// the loadgen harness is the same experiment observed through the
// transport.
func TestRunStreamMatchesChaos(t *testing.T) {
	cases := []struct {
		name   string
		fault  chaos.Config
		choice workload.PageChoice
		theta  float64
	}{
		{name: "all-faults", fault: allFaults(1)},
		{
			name:   "zipf-high-loss",
			fault:  chaos.Config{Seed: 7, Loss: 0.5, Churn: 0.1, MaxCycles: 2},
			choice: workload.ZipfPages,
			theta:  0.8,
		},
		{
			name:  "stall-corrupt-jitter",
			fault: chaos.Config{Seed: 3, StallEvery: 32, StallFor: 4, Corrupt: 0.05, Jitter: 0.1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, stream := scenario(t, 300, workload.ShardSize+777, tc.choice, tc.theta, 5)
			res, err := RunStream(context.Background(), a, stream, tc.fault, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			want, err := chaos.RunParallel(a, stream, tc.fault, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&res.Result, want) {
				t.Errorf("result diverges from chaos engine:\n ring: %+v\nchaos: %+v", res.Result, *want)
			}
		})
	}
}

// TestRunStreamWorkerDeterminism pins that the Result — including the
// order-sensitive trace digest and the server-side fault counters — is
// identical at any worker count and any ring depth, including a
// pathologically tiny ring that forces constant flow-control pressure.
func TestRunStreamWorkerDeterminism(t *testing.T) {
	a, stream := scenario(t, 300, workload.ShardSize+777, workload.UniformPages, 0, 9)
	fault := allFaults(2)
	base, err := RunStream(context.Background(), a, stream, fault, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 0},
		{Workers: 3, RingSlots: 8},
	} {
		got, err := RunStream(context.Background(), a, stream, fault, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("%+v: result diverges from single-worker run", opts)
		}
	}
	if base.FaultStats.DroppedFrames == 0 || base.FaultStats.StalledSlots == 0 {
		t.Errorf("faulted run recorded no server-side faults: %+v", base.FaultStats)
	}
}

// TestRunStreamFoldIndependentOfProcs pins that the fold after the air,
// which runs on GOMAXPROCS workers whatever Options.Workers is, returns
// the same Result at any GOMAXPROCS, fault-free and under every fault
// class.
func TestRunStreamFoldIndependentOfProcs(t *testing.T) {
	a, stream := scenario(t, 300, 2*workload.ShardSize+777, workload.UniformPages, 0, 13)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name  string
		fault chaos.Config
	}{
		{name: "fault-free"},
		{name: "all-faults", fault: allFaults(4)},
	} {
		var base *Result
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 3} {
				got, err := RunStream(context.Background(), a, stream, tc.fault, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s procs=%d workers=%d: %v", tc.name, procs, workers, err)
				}
				if base == nil {
					base = got
				} else if !reflect.DeepEqual(got, base) {
					t.Errorf("%s procs=%d workers=%d: result diverges from procs=1 workers=1", tc.name, procs, workers)
				}
			}
		}
	}
}

// TestRunMatchesChaosEndToEnd pins Materialize + RunStream, the path
// cmd/loadgen takes: the scenario it materialises measures identically to
// the chaos engine run on the same manually built instance.
func TestRunMatchesChaosEndToEnd(t *testing.T) {
	cfg := Config{
		Clients: 5000,
		Dist:    workload.SSkewed,
		Seed:    21,
		Fault:   chaos.Config{Seed: 21, Loss: 0.2, Jitter: 0.2},
	}
	ma, mstream, err := Materialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), ma, mstream, cfg.Fault, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := workload.GroupSet(workload.SSkewed, 8, 1000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: 5000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want, err := chaos.RunParallel(core.Analyze(prog), stream, cfg.Fault, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&res.Result, want) {
		t.Errorf("Run result diverges from chaos engine:\n ring: %+v\nchaos: %+v", res.Result, *want)
	}
	if res.Channels != prog.Channels() || res.CycleLen != prog.Length() || res.Clients != 5000 {
		t.Errorf("scenario echo wrong: %d channels %d cycle %d clients",
			res.Channels, res.CycleLen, res.Clients)
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, err := Materialize(Config{Clients: -1}); err == nil {
		t.Error("expected error for negative client count")
	}
	a, stream, err := Materialize(Config{Clients: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStream(context.Background(), a, stream, chaos.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.TraceDigest != 0 {
		t.Errorf("zero-client run not empty: %+v", res.Result)
	}
	if _, err := RunStream(context.Background(), nil, nil, chaos.Config{}, Options{}); err == nil {
		t.Error("expected error for nil analysis")
	}
}

// TestRunStreamContextCancel pins that cancellation aborts a run instead
// of deadlocking the broadcaster/worker handshake.
func TestRunStreamContextCancel(t *testing.T) {
	a, stream := scenario(t, 100, 2000, workload.UniformPages, 0, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStream(ctx, a, stream, allFaults(1), Options{Workers: 2, RingSlots: 8}); err == nil {
		t.Error("expected error from cancelled context")
	}
}

// TestRunStreamHundredKClients is the acceptance-scale anchor: 131072
// simulated clients through the ring, faults off, bit-for-bit equal to
// sim.MeasureStream.
func TestRunStreamHundredKClients(t *testing.T) {
	a, stream := scenario(t, 1000, 2*workload.ShardSize, workload.UniformPages, 0, 1)
	res, err := RunStream(context.Background(), a, stream, chaos.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.MeasureStream(a, stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != *m {
		t.Errorf("100k-client metrics diverge from sim.MeasureStream:\n ring: %+v\n  sim: %+v", res.Metrics, *m)
	}
}
