package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"tcsa/internal/stats"
)

// loadSummaries collects every summary.json under dir, by workload, the
// runs that failed a gate included. dir is one run's results directory or
// any directory holding several, so a set of runs (say ten seeds, or ten
// alternating parent runs) compares as one.
func loadSummaries(dir string) (map[string][]*summary, error) {
	out := map[string][]*summary{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "summary.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s summary
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out[s.Workload] = append(out[s.Workload], &s)
		return nil
	})
	return out, err
}

func correctRuns(runs []*summary) []*summary {
	var ok []*summary
	for _, s := range runs {
		if s.Correct {
			ok = append(ok, s)
		}
	}
	return ok
}

// setStats is one side of a comparison for one (workload, metric): the
// median and quartiles over the set's runs, or over the one run's timed
// repetitions when the set holds a single run.
type setStats struct {
	median, q1, q3 float64
	runs           int
}

func statsOf(runs []*summary, metric string) (setStats, bool) {
	var meds []float64
	var only metricSummary
	for _, s := range runs {
		if m, ok := s.Metrics[metric]; ok {
			meds = append(meds, m.Median)
			only = m
		}
	}
	switch len(meds) {
	case 0:
		return setStats{}, false
	case 1:
		return setStats{median: only.Median, q1: only.Q1, q3: only.Q3, runs: 1}, true
	}
	q1, q3 := quartiles(meds)
	return setStats{median: stats.Percentile(meds, 0.5), q1: q1, q3: q3, runs: len(meds)}, true
}

// spread is the quartile distance as a share of the median.
func (s setStats) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// compareSets prints, for every workload and metric, both sets' medians,
// the change and a verdict. It returns the process exit code: 1 when
// anything regressed.
func compareSets(s *spec, dirA, dirB string, w io.Writer) int {
	a, err := loadSummaries(dirA)
	if err == nil {
		var b map[string][]*summary
		if b, err = loadSummaries(dirB); err == nil {
			return printComparison(s, a, b, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// printComparison judges set B against set A, workload by workload. A
// workload regresses when B has a smaller share of runs that passed every
// gate, when B's runs fail a larger share of what they attempted, or when
// any of its metrics regresses.
func printComparison(s *spec, a, b map[string][]*summary, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range s.Workloads {
		okA, okB := correctRuns(a[wl.Name]), correctRuns(b[wl.Name])
		if len(okA) == 0 {
			fmt.Fprintf(w, "%-13s no run in A passed its gates: nothing to compare against\n", wl.Name)
			continue
		}
		shareA := float64(len(okA)) / float64(len(a[wl.Name]))
		shareB := 0.0
		if len(b[wl.Name]) > 0 {
			shareB = float64(len(okB)) / float64(len(b[wl.Name]))
		}
		if shareB < shareA {
			fmt.Fprintf(w, "%-13s %-18s %14s %14s %9s %6s  REGRESSED\n", wl.Name, "correct_runs",
				fmt.Sprintf("%d/%d", len(okA), len(a[wl.Name])), fmt.Sprintf("%d/%d", len(okB), len(b[wl.Name])), "", "")
			code = 1
		}
		if len(okB) == 0 {
			continue
		}
		fa, fb := failedRatio(okA), failedRatio(okB)
		v := "equal"
		switch {
		case fb > fa:
			v, code = "REGRESSED", 1
		case fb < fa:
			v = "improved"
		}
		fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %9s %6s  %s\n", wl.Name, "failed_ratio", fa, fb, "", "+0", v)

		for _, m := range s.metricsOf(wl.Name) {
			sa, haveA := statsOf(okA, m.Name)
			sb, haveB := statsOf(okB, m.Name)
			if !haveA || !haveB {
				continue
			}
			v, bd := verdict(m, sa, sb), fmt.Sprintf("%.1f%%", 100*boundOf(m))
			if isExact(wl.Name, m.Name) {
				if pairs, worse, differ := pairedSeeds(okA, okB, m); pairs > 0 {
					v, bd = exactVerdict(pairs, worse, differ), "exact"
				}
			}
			if strings.HasPrefix(v, "REGRESSED") {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %+8.2f%% %6s  %s (n %d/%d)\n",
				wl.Name, m.Name, sa.median, sb.median, 100*(sb.median/sa.median-1), bd, v, sa.runs, sb.runs)
		}
	}
	return code
}

// failedRatio is what a set's runs failed as a share of what they
// attempted: unserved clients, rejected edits.
func failedRatio(runs []*summary) float64 {
	var attempted, failed int64
	for _, s := range runs {
		attempted += s.Attempted
		failed += s.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func boundOf(m metricSpec) float64 {
	if m.Bound == nil {
		return 0
	}
	return *m.Bound
}

// verdict judges B against A under the metric's bound. A metric whose
// quartile spread on either side is wider than its bound is unresolved:
// the runs cannot tell a change of that size from noise.
func verdict(m metricSpec, a, b setStats) string {
	if a.median == b.median {
		return "equal"
	}
	bd := boundOf(m)
	if a.spread() > bd || b.spread() > bd {
		return "unresolved"
	}
	worse := b.median/a.median - 1
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bd:
		return "REGRESSED"
	case worse < -bd:
		return "improved"
	}
	return "within bound"
}

// pairedSeeds compares an exact metric run by run on every seed both sets
// ran: how many pairs there are, in how many B is worse, and in how many
// the two differ at all.
func pairedSeeds(a, b []*summary, m metricSpec) (pairs, worse, differ int) {
	bySeed := map[int64][]float64{}
	for _, s := range a {
		if ms, ok := s.Metrics[m.Name]; ok {
			bySeed[s.Seed] = append(bySeed[s.Seed], ms.Median)
		}
	}
	for _, s := range b {
		ms, ok := s.Metrics[m.Name]
		if !ok {
			continue
		}
		for _, va := range bySeed[s.Seed] {
			pairs++
			if ms.Median != va {
				differ++
			}
			if (m.Better == "lower" && ms.Median > va) || (m.Better == "higher" && ms.Median < va) {
				worse++
			}
		}
	}
	return pairs, worse, differ
}

// exactVerdict: an exact metric regresses when B is worse on any seed.
func exactVerdict(pairs, worse, differ int) string {
	switch {
	case worse > 0:
		return fmt.Sprintf("REGRESSED on %d of %d seed pairs", worse, pairs)
	case differ > 0:
		return fmt.Sprintf("improved on %d of %d seed pairs", differ, pairs)
	}
	return fmt.Sprintf("equal on %d seed pairs", pairs)
}
