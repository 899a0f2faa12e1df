package main

import (
	"context"
	"math"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/loadgen"
	"tcsa/internal/netcast"
	"tcsa/internal/online"
	"tcsa/internal/perf"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// serveCase is a push workload served by loadgen.RunStream over the
// in-process broadcast ring: a batch of clients generated up front,
// resolved in virtual air time.
type serveCase struct {
	factor, toyFactor   int // instance scale
	clients, toyClients int
	warm                int          // untimed repetitions before timing
	setupBuilds         int          // builds per set-up batch
	fault               chaos.Config // the zero value is fault-free air
}

// lossyPlanSeed fixes the fault pattern to the canonical plan, the one the
// committed chaos baseline pins; the workload seed picks the clients. Plans
// drawn per seed swing the average delay by about 15% from one seed to the
// next, and plan seed 10 corrupts a frame (channel 3, slot 466) that still
// passes netcast's 16-bit frame checksum, so loadgen reads a wrong page.
const lossyPlanSeed = 1

// lossyFaults is the canonical all-class fault mix, the same constants
// the committed chaos baseline pins: every fault class active, plus the
// graceful-degradation replan.
var lossyFaults = chaos.Config{
	Seed:       lossyPlanSeed,
	Loss:       0.10,
	Corrupt:    0.02,
	Churn:      0.05,
	Jitter:     0.25,
	StallEvery: 64,
	StallFor:   4,
	Burst:      &chaos.BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8},
	Replan:     true,
}

var (
	paperServe = serveCase{
		factor: 1, toyFactor: 1, clients: 1 << 20, toyClients: 1 << 12,
		warm: 2, setupBuilds: paperSetupBuilds,
	}
	lossyAir = serveCase{
		factor: 1, toyFactor: 1, clients: 1 << 19, toyClients: 1 << 12,
		warm: 2, setupBuilds: paperSetupBuilds, fault: lossyFaults,
	}
	// The ×100 catalog airs 64 cycles of 1,246 channels per repetition
	// whatever the client count; the test-sized run shrinks it to ×10.
	catalogX100 = serveCase{
		factor: 100, toyFactor: 10, clients: 1 << 17, toyClients: 1 << 12,
		warm: 1, setupBuilds: 10, // about 15 ms each
	}
)

// Loadgen serves with one client worker beside its broadcaster goroutine,
// so the load never needs more busy threads than the two cores it gets.
const loadgenWorkers = 1

func (c serveCase) run(r *run) error {
	factor, clients := c.factor, c.clients
	if r.toy {
		factor, clients = c.toyFactor, c.toyClients
	}
	in, err := r.prepare(factor)
	if err != nil {
		return err
	}
	a, prog := in.a, in.prog()
	stream, err := workload.NewStream(in.gs, prog.Length(), workload.RequestConfig{Count: clients, Seed: r.seed})
	if err != nil {
		return err
	}
	fault := c.fault

	// Gate: with faults off loadgen must reproduce sim.MeasureStream bit
	// for bit, with faults on the chaos engine; every repetition is held
	// to the reference checksum.
	var want string
	if fault.Active() {
		sp := r.tr.begin("chaos.RunParallel", 0)
		ref, err := chaos.RunParallel(a, stream, fault, loadgenWorkers)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		want = perf.SeriesChecksum(chaosFloats(ref))
	} else {
		sp := r.tr.begin("sim.MeasureStream", 0)
		ref, err := sim.MeasureStream(a, stream)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		want = perf.SeriesChecksum(metricsFloats(ref))
	}

	var last *loadgen.Result
	err = r.repeat(c.warm, func() error {
		_, err := r.setupBatch(c.setupBuilds, factor)
		return err
	}, func(timed bool) error {
		sp := r.tr.begin("loadgen.RunStream", 0)
		w := r.startWatch()
		res, err := loadgen.RunStream(context.Background(), a, stream, fault, loadgen.Options{Workers: loadgenWorkers})
		secs := r.netSeconds(w)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		got := perf.SeriesChecksum(metricsFloats(&res.Metrics))
		if fault.Active() {
			got = perf.SeriesChecksum(chaosFloats(&res.Result))
		}
		if got != want {
			return gatef("%s: loadgen checksum %s, reference engine %s", r.workload, got, want)
		}
		if !timed {
			return nil
		}
		last = res
		r.sample("clients_per_s", float64(clients)/secs)
		r.sample("air_slots_per_s", float64(res.SlotsAired)/secs)
		r.sample("wait_avg_slots", res.AvgWait)
		r.sample("wait_p99_slots", res.Wait.P99)
		r.sample("avg_delay_slots", res.AvgDelay)
		r.sample("miss_ratio", res.MissRatio)
		r.attempted += int64(clients)
		r.failed += res.Ledger.Unserved
		return nil
	})
	if err != nil || r.tr == nil {
		return err
	}

	r.instanceLayers(in)
	r.setupLayers(timedRep)
	var injector netcast.FaultInjector
	if fault.Active() {
		sp := r.tr.begin("chaos.NewPlan", 0)
		plan, err := chaos.NewPlan(fault, prog.Channels(), prog.Length())
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		injector = plan
	}
	if err := r.replayLayers(a, stream, last.SlotsAired, injector, waitsOf(a, stream)); err != nil {
		return err
	}
	// What the replayed layers cost at one repetition's volume: a stream
	// pass and a measurement per client, every frame of the air
	// published, and one poll per delivery attempt. Loadgen's broadcaster
	// publishes while its worker serves, so the residual can be negative
	// where publishing dominates.
	n := float64(clients)
	polls := n + float64(last.Ledger.Retries)
	replayed := (r.layers["workload.stream_ns_per_req"]*n + r.layers["sim.measure_ns_per_req"]*n +
		r.layers["netcast.publish_ns_per_frame"]*r.layers["netcast.frames_published"] +
		r.layers["netcast.poll_ns"]*polls) / 1e9
	serve := r.timedMedianSeconds("loadgen.RunStream")
	r.layers["loadgen.serve_s"] = serve
	r.layers["loadgen.slots_aired"] = float64(last.SlotsAired)
	r.layers["loadgen.residual_s"] = serve - replayed
	if fault.Active() {
		sp := r.tr.begin("chaos.RunParallel", 0)
		_, err := chaos.RunParallel(a, stream, fault, loadgenWorkers)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		tot := r.tr.totals(replayOnly)
		r.layers["chaos.plan_s"] = float64(tot["chaos.NewPlan"].selfNs) / 1e9
		r.layers["chaos.engine_ns_per_req"] = float64(tot["chaos.RunParallel"].selfNs) / float64(clients)
		l := last.Ledger
		served := float64(int64(clients) - l.Unserved)
		r.layers["chaos.retries_per_client"] = float64(l.Retries) / float64(clients)
		r.layers["chaos.served_per_attempt"] = served / (served + float64(l.Retries))
	}
	return nil
}

// metricsFloats is the float sequence a measurement's checksum
// fingerprints: the exact scalars and the sketch quantiles.
func metricsFloats(m *sim.Metrics) []float64 {
	return []float64{
		float64(m.Requests), m.AvgWait, m.AvgDelay, m.MissRatio,
		m.Wait.P50, m.Wait.P95, m.Wait.P99,
		m.Delay.P50, m.Delay.P95, m.Delay.P99,
	}
}

// chaosFloats extends metricsFloats with the fault ledger, the trace
// digest and the degradation replan.
func chaosFloats(r *chaos.Result) []float64 {
	vals := metricsFloats(&r.Metrics)
	vals = append(vals,
		float64(r.Misses), r.Delay.Max,
		float64(r.Ledger.LostDeliveries), float64(r.Ledger.CorruptSkips),
		float64(r.Ledger.StallSkips), float64(r.Ledger.ChurnSkips),
		float64(r.Ledger.Retries), float64(r.Ledger.Unserved),
		r.EffectiveLoss,
		float64(r.TraceDigest>>32), float64(r.TraceDigest&0xffffffff),
	)
	if r.Replan != nil {
		vals = append(vals, float64(r.Replan.EffectiveChannels),
			float64(r.Replan.MajorCycle), r.Replan.AnalyticDelay)
		for _, s := range r.Replan.Frequencies {
			vals = append(vals, float64(s))
		}
	}
	return vals
}

// Pull tier: LWF on two reserved online channels beside the push program,
// Poisson arrivals at 16 per slot with Zipf(0.8) page choice.
const (
	pullClients    = 1 << 20
	pullToyClients = 1 << 12
	pullRate       = 16
	pullTheta      = 0.8
	pullWorkers    = 2
)

func pullTier(r *run) error {
	in, err := r.prepare(1)
	if err != nil {
		return err
	}
	prog := in.prog()
	clients := pullClients
	if r.toy {
		clients = pullToyClients
	}
	stream, err := workload.NewPoissonStream(in.gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: clients, Seed: r.seed, Choice: workload.ZipfPages, Theta: pullTheta},
		Rate:          pullRate,
	})
	if err != nil {
		return err
	}
	cfg := online.Config{
		Policy:      online.LWF,
		Split:       online.Split{Mode: online.SplitReserved, OnlineChannels: 2},
		Workers:     pullWorkers,
		RecordFlows: true,
	}

	// Gate: the sharded measurement is worker-count independent.
	serial := cfg
	serial.Workers = 1
	sp := r.tr.begin("online.Run", 0)
	ref, err := online.Run(prog, stream, serial)
	r.tr.end(sp, 1)
	if err != nil {
		return err
	}

	var last *online.Result
	err = r.repeat(1, func() error {
		_, err := r.setupBatch(paperSetupBuilds, 1)
		return err
	}, func(timed bool) error {
		sp := r.tr.begin("online.Run", 0)
		w := r.startWatch()
		res, err := online.Run(prog, stream, cfg)
		secs := r.netSeconds(w)
		r.tr.end(sp, 1)
		if err != nil {
			return err
		}
		if res.TraceDigest != ref.TraceDigest {
			return gatef("pull-tier: trace digest %016x at %d workers, %016x at 1",
				res.TraceDigest, pullWorkers, ref.TraceDigest)
		}
		if !timed {
			return nil
		}
		last = res
		delay, miss := flowDelays(in.gs, stream, res.Flows)
		r.sample("clients_per_s", float64(res.Requests)/secs)
		r.sample("air_slots_per_s", float64(res.HorizonSlots)/secs)
		r.sample("wait_avg_slots", res.AvgFlow)
		r.sample("wait_p99_slots", res.Flow.P99)
		r.sample("avg_delay_slots", delay)
		r.sample("miss_ratio", miss)
		r.attempted += int64(res.Requests)
		r.failed += int64(res.Requests - res.PushServed - res.OnlineServed)
		return nil
	})
	if err != nil || r.tr == nil {
		return err
	}

	r.instanceLayers(in)
	r.setupLayers(timedRep)
	if err := r.replayLayers(in.a, stream, int64(last.HorizonSlots), nil, last.Flows); err != nil {
		return err
	}
	r.layers["online.run_s"] = r.timedMedianSeconds("online.Run")
	r.layers["online.horizon_slots"] = float64(last.HorizonSlots)
	r.layers["online.airings"] = float64(last.OnlineAirings)
	r.layers["online.push_share"] = float64(last.PushServed) / float64(last.Requests)
	return nil
}

// flowDelays folds per-request flows into the paper's objective: the mean
// delay beyond each page's expected time, and the share of requests that
// had any.
func flowDelays(gs *core.GroupSet, stream workload.Stream, flows []float64) (avg, miss float64) {
	var delay stats.Online
	misses := 0
	cur := stream.NewCursor()
	var req workload.Request
	i := 0
	for k := 0; k < stream.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&req) {
			d := math.Max(0, flows[i]-float64(gs.TimeOf(req.Page)))
			if d > 0 {
				misses++
			}
			delay.Add(d)
			i++
		}
	}
	return delay.Mean(), float64(misses) / float64(max(i, 1))
}
