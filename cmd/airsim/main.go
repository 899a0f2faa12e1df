// Command airsim runs the full discrete-event broadcast simulation: a
// scheduled program replayed on slotted air channels, single-tuner clients
// arriving at random instants, optional frame loss from a seed-replayable
// chaos plan, impatient clients abandoning for a modelled on-demand (pull)
// server. Clients still waiting chaos.DefaultMaxCycles cycles after the
// last arrival's cycle are reported unserved.
//
//	airsim -counts 3,5,3 -t1 2 -channels 3 -requests 500
//	airsim -dist uniform -channels 13 -mode scan
//	airsim -dist lskew -channels 5 -abandon 1.0 -service 2 -requests 3000
//	airsim -dist uniform -channels 13 -requests 2000000 -parallel 8
//
// With -parallel N > 0, the event simulation is replaced by the streaming
// sharded sampler (sim.MeasureParallel): requests are generated on the fly
// and measured with O(1) sample memory, so -requests can reach tens of
// millions. The sampler is schedule-aware and lossless, so it rejects
// -abandon, -loss, -trace and -mode scan.
//
// With -abandon > 0, clients give up once their wait exceeds
// abandon * expected time and hybrid.Run submits their requests, at their
// defection instants, to the on-demand server (service time -service
// slots) or, with -online, to the online broadcast tier, demonstrating
// the paper's motivating congestion effect.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tcsa"
	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/hybrid"
	"tcsa/internal/ondemand"
	"tcsa/internal/online"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airsim", flag.ContinueOnError)
	counts := fs.String("counts", "", "comma-separated per-group page counts")
	dist := fs.String("dist", "", "group-size distribution: uniform|normal|lskew|sskew")
	pages := fs.Int("pages", 1000, "total pages for -dist")
	groups := fs.Int("groups", 8, "groups for -dist")
	t1 := fs.Int("t1", 4, "smallest expected time")
	ratio := fs.Int("ratio", 2, "geometric ratio c")
	channels := fs.Int("channels", 0, "channel budget (0 = minimum)")
	mode := fs.String("mode", "aware", "client strategy: aware|scan")
	abandon := fs.Float64("abandon", 0, "abandon after this multiple of the expected time (0 = never)")
	service := fs.Float64("service", 2, "on-demand service time (slots) for abandoned requests")
	onlinePolicy := fs.String("online", "", "route abandoned clients through the slot-level online broadcast tier under this policy: lwf|mrf|edf|fcfs (requires -abandon)")
	splitSpec := fs.String("split", "reserved:1", "online-tier pull/push split for -online: pure|reserved[:K]|steal[:T]")
	requests := fs.Int("requests", 1000, "number of client requests")
	parallel := fs.Int("parallel", 0, "measure with the streaming sharded sampler over N workers instead of the event simulation (0 = event simulation)")
	seed := fs.Int64("seed", 1, "request seed")
	traceN := fs.Int("trace", 0, "print the last N simulation events")
	loss := fs.Float64("loss", 0, "frame-loss probability per (channel, slot), shared by every tuner")
	burst := fs.Bool("burst", false, "use a bursty (Gilbert-Elliott) channel at the given -loss rate")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gs, err := workload.ParseInstance(*counts, *dist, *pages, *groups, *t1, *ratio)
	if err != nil {
		return err
	}
	n := *channels
	if n == 0 {
		n = gs.MinChannels()
	}
	sched, err := tcsa.Build(gs, n)
	if err != nil {
		return err
	}

	var policy online.Policy
	var split online.Split
	if *onlinePolicy != "" {
		if *abandon <= 0 {
			return fmt.Errorf("-online routes abandoned clients; it requires -abandon > 0")
		}
		// Parse eagerly so flag typos fail before the simulation runs, even
		// when no client ends up defecting.
		if policy, err = online.ParsePolicy(*onlinePolicy); err != nil {
			return err
		}
		if split, err = online.ParseSplit(*splitSpec); err != nil {
			return err
		}
	}

	if *parallel > 0 {
		// The streaming sampler measures waits against the schedule
		// directly; the event-simulation-only knobs don't apply to it.
		switch {
		case *abandon > 0:
			return fmt.Errorf("-parallel is the streaming sampler; -abandon needs the event simulation")
		case *loss > 0:
			return fmt.Errorf("-parallel is the streaming sampler; -loss needs the event simulation")
		case *traceN > 0:
			return fmt.Errorf("-parallel is the streaming sampler; -trace needs the event simulation")
		case *mode != "aware":
			return fmt.Errorf("-parallel is the streaming sampler; -mode %s needs the event simulation", *mode)
		}
		stream, err := workload.NewStream(gs, sched.Program.Length(), workload.RequestConfig{
			Count: *requests,
			Seed:  *seed,
		})
		if err != nil {
			return err
		}
		m, err := sim.MeasureParallel(core.Analyze(sched.Program), stream, *parallel)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "instance:        %v\n", gs)
		fmt.Fprintf(out, "scheduler:       %s over %d channels (minimum %d)\n", sched.Algorithm, n, sched.MinChannels)
		fmt.Fprintf(out, "cycle length:    %d slots\n", sched.Program.Length())
		fmt.Fprintf(out, "clients:         %d (streaming sampler, %d workers)\n", m.Requests, *parallel)
		fmt.Fprintf(out, "avg wait:        %.3f slots\n", m.AvgWait)
		fmt.Fprintf(out, "avg delay:       %.3f slots (AvgD)\n", m.AvgDelay)
		fmt.Fprintf(out, "miss ratio:      %.3f\n", m.MissRatio)
		fmt.Fprintf(out, "wait p95/p99:    %.1f / %.1f slots\n", m.Wait.P95, m.Wait.P99)
		return nil
	}

	reqs, err := workload.GenerateRequests(gs, sched.Program.Length(), workload.RequestConfig{
		Count: *requests,
		Seed:  *seed,
	})
	if err != nil {
		return err
	}

	cfg := sim.Config{AbandonAfter: *abandon}
	switch *mode {
	case "aware":
		cfg.Mode = sim.ScheduleAware
	case "scan":
		cfg.Mode = sim.Scanning
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *loss > 0 {
		plan, err := faultPlan(*loss, *burst, *seed, sched.Program)
		if err != nil {
			return err
		}
		cfg.Fault = plan
	}
	var tracer *sim.RingTracer
	if *traceN > 0 {
		tracer, err = sim.NewRingTracer(*traceN)
		if err != nil {
			return err
		}
		cfg.Trace = tracer.Record
	}

	// Impatient clients defect to the pull tier: hybrid.Run couples the
	// two halves.
	var rep *hybrid.Report
	var outcome *sim.Outcome
	if *abandon > 0 {
		hcfg := hybrid.Config{Air: cfg, Pull: ondemand.Config{ServiceTime: *service, Discipline: ondemand.EDF}}
		if *onlinePolicy != "" {
			hcfg.Online = &online.Config{Policy: policy, Split: split}
		}
		if rep, err = hybrid.Run(sched.Program, reqs, hcfg); err != nil {
			return err
		}
		outcome = &rep.Air
	} else if outcome, err = sim.Run(sched.Program, reqs, cfg); err != nil {
		return err
	}
	fmt.Fprintf(out, "instance:        %v\n", gs)
	fmt.Fprintf(out, "scheduler:       %s over %d channels (minimum %d)\n", sched.Algorithm, n, sched.MinChannels)
	fmt.Fprintf(out, "cycle length:    %d slots\n", sched.Program.Length())
	fmt.Fprintf(out, "clients:         %d (%s mode)\n", outcome.Requests, *mode)
	fmt.Fprintf(out, "served on air:   %d\n", outcome.Served)
	fmt.Fprintf(out, "abandoned:       %d\n", outcome.Abandoned)
	fmt.Fprintf(out, "unserved:        %d\n", outcome.Unserved)
	fmt.Fprintf(out, "avg wait:        %.3f slots\n", outcome.AvgWait)
	fmt.Fprintf(out, "avg delay:       %.3f slots (AvgD)\n", outcome.AvgDelay)
	fmt.Fprintf(out, "miss ratio:      %.3f\n", outcome.MissRatio)
	fmt.Fprintf(out, "wait p95/p99:    %.1f / %.1f slots\n", outcome.Wait.P95, outcome.Wait.P99)
	fmt.Fprintf(out, "slots simulated: %d\n", outcome.SlotsSimulated)

	if tracer != nil {
		fmt.Fprintf(out, "\ntrace (%d of %d events):\n%s", len(tracer.Events()), tracer.Total(), tracer)
	}

	switch {
	case rep == nil || outcome.Abandoned == 0:
	case rep.Online != nil:
		res := rep.Online
		fmt.Fprintf(out, "\nonline tier (%v policy, %v split):\n", policy, split)
		fmt.Fprintf(out, "  defectors:     %d\n", res.Requests)
		fmt.Fprintf(out, "  push-served:   %d\n", res.PushServed)
		fmt.Fprintf(out, "  online-served: %d (%d airings, %d stolen slots)\n",
			res.OnlineServed, res.OnlineAirings, res.StolenSlots)
		fmt.Fprintf(out, "  avg flow:      %.3f slots\n", res.AvgFlow)
		fmt.Fprintf(out, "  max flow:      %.3f slots\n", res.MaxFlow)
		fmt.Fprintf(out, "  max delay fac: %.3f\n", res.MaxDelayFactor)
	default:
		m := rep.Pull
		fmt.Fprintf(out, "\non-demand channel (service time %.1f slots):\n", *service)
		fmt.Fprintf(out, "  pull requests: %d\n", m.Submitted)
		fmt.Fprintf(out, "  avg response:  %.3f slots\n", m.AvgResponse)
		fmt.Fprintf(out, "  p99 response:  %.3f slots\n", m.Response.P99)
		fmt.Fprintf(out, "  max queue:     %d\n", m.MaxQueueLen)
	}
	return nil
}

// faultPlan builds the requested channel model as a chaos plan: uniform
// independent loss, or a Gilbert-Elliott burst channel with the same
// stationary rate.
func faultPlan(rate float64, burst bool, seed int64, prog *core.Program) (*chaos.Plan, error) {
	cfg := chaos.Config{Seed: seed, Loss: rate}
	if burst {
		b, err := burstChannel(rate)
		if err != nil {
			return nil, err
		}
		cfg.Loss, cfg.Burst = 0, b
	}
	return chaos.NewPlan(cfg, prog.Channels(), prog.Length())
}

// burstChannel solves for the Gilbert-Elliott chain whose stationary loss
// rate is rate: fades lose 90% of frames and last ~5 slots.
func burstChannel(rate float64) (*chaos.BurstConfig, error) {
	const lossBad, dwell = 0.9, 0.2
	if rate >= lossBad {
		return nil, fmt.Errorf("burst loss rate %f must be below the in-fade rate %.1f", rate, lossBad)
	}
	// Solve piBad*lossBad = rate with piBad = g2b/(g2b+b2g), b2g = dwell.
	piBad := rate / lossBad
	return &chaos.BurstConfig{GoodToBad: dwell * piBad / (1 - piBad), BadToGood: dwell, LossBad: lossBad}, nil
}
