package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile is the benchmark's declaration: workloads, end-to-end metrics
// with their regression bounds, and per-layer metrics. It lives at the
// repository root, one directory above this package.
const specFile = "BENCHMARK.json"

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one declared metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent,
// so the benchmark runs both from the repository root and from bench/. It
// returns the directory the file was found in.
func loadSpec() (*spec, string, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		s, err := readSpec(filepath.Join(dir, specFile))
		if err == nil {
			return s, dir, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, "", firstErr
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *spec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// reports reports whether workload reports end-to-end metric name.
func (s *spec) reports(workload, name string) bool {
	for _, m := range s.metricsOf(workload) {
		if m.Name == name {
			return true
		}
	}
	return false
}

// workloadMetric is an end-to-end metric that only one workload has: a
// latency its users wait on that the other workloads have no analogue of.
// BENCHMARK.json cannot declare it, because every workload reports every
// metric declared there, so it is declared here. It goes to summary.json
// and -compare judges it under its bound. pool names the observations the
// run takes the metric's percentile over, pooled across its timed
// repetitions.
type workloadMetric struct {
	metricSpec
	workload string
	pool     string
	q        float64
}

func bound(b float64) *float64 { return &b }

var workloadMetrics = []workloadMetric{
	// Edit → Snapshot → StageProgram, per catalog edit.
	{metricSpec{Name: "replan_p50_ms", Unit: "ms", Better: "lower", Bound: bound(0.10)}, "live-catalog", "replan_ms", 0.50},
	{metricSpec{Name: "replan_p99_ms", Unit: "ms", Better: "lower", Bound: bound(0.15)}, "live-catalog", "replan_ms", 0.99},
	// From the Publish stamp until Tuner.ReadFrame returns, per datagram.
	{metricSpec{Name: "air_latency_p50_us", Unit: "us", Better: "lower", Bound: bound(0.10)}, "udp-air", "air_latency_us", 0.50},
	{metricSpec{Name: "air_latency_p99_us", Unit: "us", Better: "lower", Bound: bound(0.15)}, "udp-air", "air_latency_us", 0.99},
}

// metricsOf lists the end-to-end metrics a workload reports: every one of
// BENCHMARK.json, then its own.
func (s *spec) metricsOf(workload string) []metricSpec {
	ms := append([]metricSpec(nil), s.EndToEnd...)
	for _, wm := range workloadMetrics {
		if wm.workload == workload {
			ms = append(ms, wm.metricSpec)
		}
	}
	return ms
}

// exactMetrics are the client-side metrics. The five virtual-time
// workloads compute them from the seed's inputs alone, so two runs of the
// same code on one seed read them bit-equal, and -compare holds them
// exact: worse on any seed both sets ran is a regression. BENCHMARK.json
// cannot say exact: its bound also caps their spread over runs that each
// take another seed, and they move a little from seed to seed.
var exactMetrics = map[string]bool{
	"wait_avg_slots":  true,
	"wait_p99_slots":  true,
	"avg_delay_slots": true,
	"miss_ratio":      true,
}

// isExact reports whether -compare holds metric exact on workload. On
// udp-air a datagram the host drops lengthens a wait, so its client
// metrics are not a function of the seed alone.
func isExact(workload, metric string) bool {
	return exactMetrics[metric] && workload != "udp-air"
}

// layerMove records which end-to-end metric a per-layer metric should move,
// and on which workloads, written down before anything was measured. The
// end-to-end metric is one that each of those workloads reports.
type layerMove struct {
	layer     string
	endToEnd  string
	workloads []string
}

var (
	everyWorkload = []string{"paper-serve", "lossy-air", "pull-tier", "catalog-x100", "live-catalog", "udp-air"}
	serveLoad     = []string{"paper-serve", "lossy-air", "catalog-x100"}
	udpOnly       = []string{"udp-air"}
	liveOnly      = []string{"live-catalog"}
	pullOnly      = []string{"pull-tier"}
	lossyOnly     = []string{"lossy-air"}
)

// layerMoves is the layer → end-to-end map. Every per-layer metric in
// BENCHMARK.json has exactly one row.
var layerMoves = []layerMove{
	{"workload.stream_ns_per_req", "clients_per_s", []string{"paper-serve", "pull-tier"}},
	{"pamad.frequencies_s", "setup_s", []string{"catalog-x100", "live-catalog"}},
	{"pamad.place_s", "setup_s", []string{"catalog-x100"}},
	{"pamad.cells", "setup_s", []string{"catalog-x100"}},
	{"pamad.spills", "setup_s", []string{"catalog-x100"}},
	{"pamad.empty_slots", "setup_s", []string{"catalog-x100"}},
	{"core.analyze_s", "setup_s", []string{"catalog-x100"}},
	{"core.index_cols", "setup_s", []string{"catalog-x100"}},
	{"sim.measure_ns_per_req", "clients_per_s", []string{"paper-serve"}},
	{"stats.fold_ns_per_req", "clients_per_s", []string{"paper-serve", "live-catalog"}},
	{"netcast.publish_ns_per_frame", "clients_per_s", []string{"catalog-x100", "live-catalog"}},
	{"netcast.frames_published", "clients_per_s", []string{"catalog-x100", "live-catalog"}},
	{"netcast.poll_ns", "clients_per_s", []string{"paper-serve", "live-catalog"}},
	{"netcast.stage_ns", "replan_p50_ms", liveOnly},
	{"netcast.epochs", "replan_p50_ms", liveOnly},
	{"netcast.flip_wait_slots", "wait_avg_slots", liveOnly},
	{"netcast.udp_publish_ns", "air_latency_p50_us", udpOnly},
	{"netcast.udp_overruns", "air_latency_p99_us", udpOnly},
	{"netcast.frames_received", "air_latency_p99_us", udpOnly},
	{"netcast.frames_lost", "wait_avg_slots", udpOnly},
	{"netcast.tick_slip", "air_slots_per_s", udpOnly},
	{"loadgen.serve_s", "clients_per_s", serveLoad},
	{"loadgen.slots_aired", "clients_per_s", serveLoad},
	{"loadgen.residual_s", "clients_per_s", []string{"paper-serve", "lossy-air"}},
	{"chaos.plan_s", "clients_per_s", lossyOnly},
	{"chaos.engine_ns_per_req", "clients_per_s", lossyOnly},
	{"chaos.retries_per_client", "clients_per_s", lossyOnly},
	{"chaos.served_per_attempt", "clients_per_s", lossyOnly},
	{"replan.edit_p50_ms", "replan_p50_ms", liveOnly},
	{"replan.edit_p99_ms", "replan_p99_ms", liveOnly},
	{"replan.snapshot_ms", "replan_p50_ms", liveOnly},
	{"replan.kind.none", "replan_p50_ms", liveOnly},
	{"replan.kind.append", "replan_p50_ms", liveOnly},
	{"replan.kind.suffix", "replan_p50_ms", liveOnly},
	{"replan.kind.rebuild", "replan_p99_ms", liveOnly},
	{"replan.placed_cells_per_edit", "replan_p50_ms", liveOnly},
	{"online.run_s", "clients_per_s", pullOnly},
	{"online.horizon_slots", "clients_per_s", pullOnly},
	{"online.airings", "clients_per_s", pullOnly},
	{"online.push_share", "wait_avg_slots", pullOnly},
	{"runtime.gc_cycles", "rss_peak_mb", everyWorkload},
	{"runtime.gc_pause_ms", "rss_peak_mb", everyWorkload},
	{"runtime.alloc_mb", "rss_peak_mb", everyWorkload},
}
