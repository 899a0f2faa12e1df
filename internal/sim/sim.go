// Package sim measures what clients actually experience under a broadcast
// program: waiting time, delay beyond the expected time (the paper's AvgD
// metric), deadline-miss ratio and abandonment.
//
// Two measurement modes are provided:
//
//   - Measure: a fast sampler that evaluates a request stream directly
//     against the program's appearance structure (core.Analysis). This is
//     what the Figure 5 reproduction uses — the paper's "3000 requests"
//     evaluation — and it agrees with the closed-form expectation by
//     construction. It runs on a streaming, worker-sharded engine
//     (MeasureStream / MeasureParallel) that holds O(1) sample memory
//     regardless of the request count; see docs/perf.md.
//   - Run: a full discrete-event simulation on the airwave substrate, with
//     schedule-aware or blind-scanning single-tuner clients, an optional
//     fault source (Fault: frame loss and slot jitter, the same *chaos.Plan
//     every other engine replays), and an impatience model in which clients abandon the broadcast
//     channel after a multiple of their expected time (the paper's
//     Section 1 motivation for bounding waits: abandonments become pull
//     requests that congest the on-demand channel).
//
//lint:deterministic bit-identical replay contract: no wall clock, no global RNG, no map-order folds
package sim

import (
	"errors"

	"tcsa/internal/core"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// Metrics aggregates per-request outcomes of a measurement. AvgWait,
// AvgDelay, MissRatio and the Summary moment fields (N, Mean, StdDev, Min,
// Max) are exact; the Summary quantiles (P50/P95/P99) from the streaming
// sampler are stats.Sketch estimates within ~1% of the exact order
// statistic (the full simulation in Run still reports exact quantiles).
type Metrics struct {
	Requests  int
	AvgWait   float64 // mean slots from tune-in to reception
	AvgDelay  float64 // mean slots beyond the expected time (paper's AvgD)
	MissRatio float64 // fraction of requests served after their expected time
	Wait      stats.Summary
	Delay     stats.Summary
}

// Measure evaluates a request stream against a finished program using its
// appearance structure: each request waits from its arrival instant to the
// next broadcast of its page on any channel (the multi-channel, schedule-
// aware model under which the paper's AvgD is defined).
func Measure(prog *core.Program, reqs []workload.Request) (*Metrics, error) {
	if prog == nil {
		return nil, errors.New("sim: nil program")
	}
	a := core.Analyze(prog)
	return MeasureAnalyzed(a, reqs)
}

// MeasureAnalyzed is Measure for callers that already hold the Analysis
// (e.g. sweeps that reuse it across request batches). It is a thin wrapper
// over the streaming engine: the request slice is consumed through
// workload.SliceStream and MeasureStream, so the scalar metrics and
// Summary moments are bit-for-bit what the historical slice-based sampler
// produced (see TestMeasureStreamPinsLegacySampler).
func MeasureAnalyzed(a *core.Analysis, reqs []workload.Request) (*Metrics, error) {
	return MeasureStream(a, workload.SliceStream(reqs))
}
