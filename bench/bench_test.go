package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) *spec {
	t.Helper()
	s, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecIsWellFormed(t *testing.T) {
	s := testSpec(t)
	if len(s.Workloads) < 2 || len(s.EndToEnd) < 1 || len(s.PerLayer) < 1 {
		t.Fatalf("spec has %d workloads, %d end-to-end and %d per-layer metrics",
			len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" {
			t.Errorf("workload %q: bad or repeated name, or no reason", w.Name)
		}
		seen[w.Name] = true
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(workloadFuncs) != len(s.Workloads) {
		t.Errorf("%d workloads implemented, %d declared", len(workloadFuncs), len(s.Workloads))
	}
	for _, m := range s.EndToEnd {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("end-to-end metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a unit, a direction and a bound in (0, 0.25]", m.Name)
		}
	}
	if m, ok := s.endToEnd("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Error("setup_s must be declared in s, lower is better")
	}
	for _, wm := range workloadMetrics {
		m := wm.metricSpec
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !s.workload(wm.workload) || wm.q <= 0 || wm.q >= 1 {
			t.Errorf("workload metric %q: bad or repeated name, unknown workload %q or quantile %v", m.Name, wm.workload, wm.q)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("workload metric %q needs a unit, a direction and a bound in (0, 0.25]", m.Name)
		}
	}
	for name := range exactMetrics {
		if _, ok := s.endToEnd(name); !ok {
			t.Errorf("exact metric %q is not an end-to-end metric", name)
		}
	}
	moves := map[string]layerMove{}
	for _, lm := range layerMoves {
		moves[lm.layer] = lm
	}
	if len(moves) != len(layerMoves) || len(moves) != len(s.PerLayer) {
		t.Errorf("%d layer rows (%d distinct) for %d per-layer metrics", len(layerMoves), len(moves), len(s.PerLayer))
	}
	for _, m := range s.PerLayer {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer metric %q needs a unit, a direction and no bound", m.Name)
		}
		lm, ok := moves[m.Name]
		if !ok {
			t.Errorf("per-layer metric %q names no end-to-end metric it moves", m.Name)
			continue
		}
		if len(lm.workloads) == 0 {
			t.Errorf("per-layer metric %q names no workload", m.Name)
		}
		for _, w := range lm.workloads {
			if !s.workload(w) || !s.reports(w, lm.endToEnd) {
				t.Errorf("per-layer metric %q moves %q on %q, which does not report it", m.Name, lm.endToEnd, w)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at toy size, untraced
// and traced, and checks that every declared metric comes out finite with
// its unit, and that each layer metric is measured on the workloads it is
// declared to move.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := testSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, _ := runWorkload(w.Name, 1, 0, true, false)
			if !res.Correct {
				t.Fatalf("untraced run failed: %s", res.Error)
			}
			sum, err := summarize(s, res)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range s.metricsOf(w.Name) {
				if ms := sum.Metrics[m.Name]; ms.Unit != m.Unit || ms.N == 0 {
					t.Errorf("%s: %+v", m.Name, ms)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("attempted %d", res.Attempted)
			}

			tres, tr := runWorkload(w.Name, 1, 0, true, true)
			if !tres.Correct {
				t.Fatalf("traced run failed: %s", tres.Error)
			}
			if err := tr.writeJSONL(filepath.Join(t.TempDir(), "trace.jsonl")); err != nil {
				t.Fatal(err)
			}
			l, err := layerReport(s, sum, tres)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range s.PerLayer {
				lm := l.Metrics[m.Name]
				if lm.Unit != m.Unit || math.IsNaN(lm.Value) {
					t.Errorf("%s: %+v", m.Name, lm)
				}
			}
			for _, lm := range layerMoves {
				for _, on := range lm.workloads {
					if _, ok := tres.Layers[lm.layer]; on == w.Name && !ok {
						t.Errorf("%s is declared to move %s on %s but was not measured", lm.layer, lm.endToEnd, on)
					}
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	b := 0.1
	lower := metricSpec{Name: "x", Better: "lower", Bound: &b}
	tight := func(m float64) setStats { return setStats{median: m, q1: m, q3: m, runs: 10} }
	for _, c := range []struct {
		a, b setStats
		want string
	}{
		{tight(100), tight(100), "equal"},
		{tight(100), tight(105), "within bound"},
		{tight(100), tight(120), "REGRESSED"},
		{tight(100), tight(80), "improved"},
		{setStats{median: 100, q1: 80, q3: 120, runs: 10}, tight(120), "unresolved"},
	} {
		if got := verdict(lower, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// summaryOf is a correct one-run summary of workload paper-serve.
func summaryOf(seed int64, failed int64, metrics map[string]float64) *summary {
	sum := &summary{Workload: "paper-serve", Seed: seed, Correct: true, Attempted: 1000, Failed: failed,
		Metrics: map[string]metricSummary{}}
	for name, v := range metrics {
		sum.Metrics[name] = metricSummary{Median: v, Q1: v, Q3: v, N: 10}
	}
	return sum
}

func TestCompareFlagsRegressions(t *testing.T) {
	s := testSpec(t)
	base := map[string]float64{"clients_per_s": 1000, "avg_delay_slots": 8}
	with := func(clients, delay float64) map[string]float64 {
		return map[string]float64{"clients_per_s": clients, "avg_delay_slots": delay}
	}
	set := func(sums ...*summary) map[string][]*summary { return map[string][]*summary{"paper-serve": sums} }
	a := set(summaryOf(1, 0, base), summaryOf(2, 0, base))
	for _, c := range []struct {
		name string
		b    map[string][]*summary
		want int
	}{
		{"same", set(summaryOf(1, 0, base), summaryOf(2, 0, base)), 0},
		{"missing from B", set(), 1},
		{"a gate failed in B", set(summaryOf(1, 0, base), &summary{Workload: "paper-serve", Seed: 2}), 1},
		{"more failures in B", set(summaryOf(1, 0, base), summaryOf(2, 1, base)), 1},
		{"throughput within bound", set(summaryOf(1, 0, with(950, 8)), summaryOf(2, 0, with(950, 8))), 0},
		{"throughput past bound", set(summaryOf(1, 0, with(500, 8)), summaryOf(2, 0, with(500, 8))), 1},
		{"exact metric worse on one seed", set(summaryOf(1, 0, base), summaryOf(2, 0, with(1000, 8.0001))), 1},
		{"exact metric better", set(summaryOf(1, 0, base), summaryOf(2, 0, with(1000, 7.9))), 0},
	} {
		var out bytes.Buffer
		if got := printComparison(s, a, c.b, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
