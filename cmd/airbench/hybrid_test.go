package main

import (
	"testing"

	"tcsa/internal/experiments"
	"tcsa/internal/online"
	"tcsa/internal/perf"
	"tcsa/internal/workload"
)

// TestHybridCommittedChecksums recomputes the two series the hybrid gate
// freezes — the single-worker run of the main online workload and the
// coupled intensity x split x policy matrix — and compares them against the
// committed BENCH_hybrid.json. Any engine change that moves a float, a
// count, or the trace digest shows up here without running the wall-time
// benchmarks.
func TestHybridCommittedChecksums(t *testing.T) {
	rep, err := perf.ReadFile("../../BENCH_hybrid.json")
	if err != nil {
		t.Fatal(err)
	}
	prog, stream, ocfg, err := hybridBenchInstance()
	if err != nil {
		t.Fatal(err)
	}
	ocfg.Workers = 1
	ref, err := online.Run(prog, stream, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Find("OnlineLWFReserved"); s == nil {
		t.Fatal("committed report missing OnlineLWFReserved")
	} else if got := perf.SeriesChecksum(onlineSeries(ref)); got != s.Checksum {
		t.Errorf("online series drifted from committed gate: %s != %s", got, s.Checksum)
	}

	p, rates, splits := hybridMatrixSpec()
	pts, err := experiments.HybridMatrix(p, workload.Uniform, rates, splits, online.Policies())
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Find("HybridMatrix"); s == nil {
		t.Fatal("committed report missing HybridMatrix")
	} else if got := perf.SeriesChecksum(experiments.HybridSeries(pts)); got != s.Checksum {
		t.Errorf("matrix series drifted from committed gate: %s != %s", got, s.Checksum)
	}
}
