// Package hybrid couples the two halves of the paper's system model: the
// push side (a broadcast program on the air) and the pull side (the
// on-demand uplink server), under the Section 1 impatience dynamic —
// "when the waiting time is longer than the expected time of a client, the
// client could switch the access from a broadcast channel to an on-demand
// channel ... Too often and too many such actions could seriously congest
// the on-demand channels."
//
// Run replays a request population on the broadcast air (chaos.Replay);
// clients whose wait exceeds their patience defect at their defection
// instants into the pull tier. Two pull tiers are available: the default
// queueing model of the on-demand uplink (internal/ondemand), and — when
// Config.Online is set — the slot-level online broadcast scheduler
// (internal/online), where defectors join a live request queue whose
// policy competes with the push program for actual broadcast slots. The
// Report quantifies both sides plus the end-to-end picture, making the
// paper's motivating trade-off directly measurable for any scheduler.
package hybrid

import (
	"errors"
	"fmt"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/ondemand"
	"tcsa/internal/online"
	"tcsa/internal/sim"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// Config parameterises the coupled system.
type Config struct {
	// Air is the broadcast replay. Air.AbandonAfter is the impatience
	// threshold as a multiple of each page's expected time and must be
	// > 0 (a hybrid system without defection is just chaos.Replay). Run
	// routes every sim.EventAbandon to the pull tier; Air.Trace, when set,
	// sees every event after Run's own bookkeeping does.
	Air chaos.ReplayConfig
	// Pull configures the on-demand server (service time, workers,
	// discipline, queue bound). Ignored when Online is set.
	Pull ondemand.Config
	// Online, when non-nil, routes defectors into the slot-level online
	// broadcast tier instead of the on-demand queueing model: they enter
	// the live request queue at their defection instants and are served by
	// whichever tier airs their page first under Online.Split.
	// Online.RecordFlows is forced on (the per-defector flows feed the
	// end-to-end statistics).
	Online *online.Config
}

// Report is the outcome of one hybrid run.
type Report struct {
	// Air is the broadcast side: served/abandoned counts and wait/delay
	// statistics for the clients the air satisfied.
	Air chaos.Outcome
	// Pull is the on-demand side: queueing statistics for the defectors
	// (zero when Config.Online routed them to the online tier instead).
	Pull ondemand.Metrics
	// Online is the online-tier outcome for the defectors, present only
	// when Config.Online was set.
	Online *online.Result
	// PullShare is the fraction of all requests that defected.
	PullShare float64
	// EndToEnd summarises total latency (arrival to data) across both
	// paths: broadcast waits for the served, wait-until-defection plus
	// pull flow/response for the defectors.
	EndToEnd stats.Summary
}

// Run executes the coupled simulation.
func Run(prog *core.Program, reqs []workload.Request, cfg Config) (*Report, error) {
	if prog == nil {
		return nil, errors.New("hybrid: nil program")
	}
	if cfg.Air.AbandonAfter <= 0 {
		return nil, fmt.Errorf("hybrid: abandon threshold %f (must be > 0)", cfg.Air.AbandonAfter)
	}
	gs := prog.GroupSet()

	type defection struct {
		req workload.Request
		at  float64
	}
	var defections []defection
	// Served-client waits come from the replay's own serve events, not
	// from the closed-form appearance structure: under frame loss (or any
	// future fault mode) the two disagree, and reconstructing the served
	// set analytically double-counts clients the replay defected.
	endToEnd := make([]float64, 0, len(reqs))
	airCfg := cfg.Air
	airCfg.Trace = func(ev sim.Event) {
		switch ev.Kind {
		case sim.EventServe:
			endToEnd = append(endToEnd, ev.Time-reqs[ev.Client].Arrival)
		case sim.EventAbandon:
			defections = append(defections, defection{req: reqs[ev.Client], at: ev.Time})
		case sim.EventArrive, sim.EventTune:
		}
		if cfg.Air.Trace != nil {
			cfg.Air.Trace(ev)
		}
	}
	air, err := chaos.Replay(prog, reqs, airCfg)
	if err != nil {
		return nil, err
	}

	report := &Report{Air: *air}
	if len(reqs) > 0 {
		report.PullShare = float64(len(defections)) / float64(len(reqs))
	}

	switch {
	case len(defections) == 0:
		// No pull tier to drive.
	case cfg.Online != nil:
		// Defectors join the online tier's live queue at their defection
		// instants; their end-to-end latency is the time already burned
		// waiting on air plus the online tier's flow time.
		ocfg := *cfg.Online
		ocfg.RecordFlows = true
		defReqs := make([]workload.Request, len(defections))
		for i, d := range defections {
			defReqs[i] = workload.Request{Page: d.req.Page, Arrival: d.at}
		}
		res, err := online.Run(prog, workload.SliceStream(defReqs), ocfg)
		if err != nil {
			return nil, fmt.Errorf("hybrid: online tier: %w", err)
		}
		report.Online = res
		for i, d := range defections {
			endToEnd = append(endToEnd, (d.at-d.req.Arrival)+res.Flows[i])
		}
	default:
		// Defections arrive in time order, so they feed the pull queue as
		// they are. A defector's response misses its deadline if it
		// completes after arrival + slack * expected time.
		slack := max(3, cfg.Air.AbandonAfter)
		subs := make([]ondemand.Submission, len(defections))
		for i, d := range defections {
			subs[i] = ondemand.Submission{At: d.at, Request: ondemand.Request{
				Page:     d.req.Page,
				Deadline: d.req.Arrival + slack*float64(gs.TimeOf(d.req.Page)),
				Tag:      uint64(i),
			}}
		}
		pullCfg := cfg.Pull
		pullCfg.OnComplete = func(req ondemand.Request, submitted, completed float64) {
			d := defections[req.Tag]
			endToEnd = append(endToEnd, (d.at-d.req.Arrival)+(completed-submitted))
		}
		if report.Pull, err = ondemand.Serve(subs, pullCfg); err != nil {
			return nil, err
		}
	}
	report.EndToEnd = stats.Summarize(endToEnd)
	return report, nil
}
