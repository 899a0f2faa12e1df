package main

import (
	"path/filepath"
	"strings"
	"testing"

	"tcsa/internal/perf"
)

func TestRunFig3(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig3"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 3", "uniform", "L-skewed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFig4(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4, 8, 16, 32, 64, 128, 256, 512") {
		t.Errorf("missing expected times:\n%s", out.String())
	}
}

func TestRunFig5Table(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "fig5", "-dist", "sskew", "-requests", "500", "-stride", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Figure 5") || !strings.Contains(s, "PAMAD") {
		t.Errorf("missing table headers:\n%s", s)
	}
}

func TestRunFig5CSV(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "fig5", "-dist", "sskew", "-requests", "500", "-stride", "8", "-csv", "-skipopt"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "distribution,channels,") {
		t.Errorf("missing CSV header:\n%s", out.String())
	}
}

func TestRunKnee(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "knee", "-dist", "sskew", "-requests", "500", "-stride", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "N_min/5") {
		t.Errorf("missing knee columns:\n%s", out.String())
	}
}

func TestRunAblations(t *testing.T) {
	for _, exp := range []string{"tiebreak", "modelcheck", "optgap"} {
		var out strings.Builder
		err := run([]string{"-experiment", exp, "-dist", "sskew", "-requests", "300", "-stride", "6"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "Ablation") {
			t.Errorf("%s: missing ablation header:\n%s", exp, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-experiment", "nope"},
		{"-dist", "pareto"},
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunFig5Plot(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "fig5", "-dist", "sskew", "-requests", "300", "-stride", "6", "-plot"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "AvgD (log) vs channels") {
		t.Errorf("missing plot:\n%s", out.String())
	}
}

func TestRunBaselines(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "baselines", "-dist", "sskew", "-requests", "300", "-stride", "6"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flat-disk AvgD") {
		t.Errorf("missing baseline table:\n%s", out.String())
	}
}

func TestRunFig2(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "t_major = 9") {
		t.Errorf("fig2 output missing walkthrough:\n%s", out.String())
	}
}

func TestRunFig5Parallel(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "fig5", "-dist", "sskew", "-requests", "400", "-stride", "6", "-parallel", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 5") {
		t.Errorf("parallel fig5 output:\n%s", out.String())
	}
}

// TestRunBench: -bench writes a well-formed BENCH_sweep.json whose sweep
// samples carry series checksums, and a doctored baseline fails the run
// with its regressions reported.
func TestRunBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	// -buildout must not default: the default path is relative, so the
	// test would write a BENCH_build.json into the package directory.
	buildPath := filepath.Join(t.TempDir(), "BENCH_build.json")
	fast := []string{"-bench", "-stride", "16", "-skipopt", "-requests", "200", "-dist", "sskew",
		"-benchout", path, "-buildout", buildPath}
	var out strings.Builder
	if err := run(fast, &out); err != nil {
		t.Fatal(err)
	}
	rep, err := perf.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != perf.SchemaVersion || rep.MaxProcs < 1 || rep.GOOS == "" {
		t.Errorf("malformed report header: %+v", rep)
	}
	for _, name := range []string{"AppearanceIndex", "Analyze", "Measure", "MeasureParallel", "Figure5/S-skewed"} {
		s := rep.Find(name)
		if s == nil {
			t.Fatalf("report missing sample %q", name)
		}
		if s.Iterations < 1 || s.NsPerOp <= 0 {
			t.Errorf("%s: implausible sample %+v", name, s)
		}
	}
	if sweep := rep.Find("Figure5/S-skewed"); len(sweep.Checksum) != 16 {
		t.Errorf("sweep sample missing series checksum: %+v", sweep)
	}
	// Serial and parallel measurement fingerprint the same stream: by the
	// engine's determinism contract the checksums must match exactly.
	serial, par := rep.Find("Measure"), rep.Find("MeasureParallel")
	if serial.Checksum == "" || serial.Checksum != par.Checksum {
		t.Errorf("Measure checksum %q != MeasureParallel checksum %q", serial.Checksum, par.Checksum)
	}

	// A baseline claiming a different series and fewer allocations must
	// fail the comparison and name both regressions.
	bad := *rep
	bad.Samples = append([]perf.Sample(nil), rep.Samples...)
	for i := range bad.Samples {
		if bad.Samples[i].Name == "Figure5/S-skewed" {
			bad.Samples[i].Checksum = "0000000000000000"
			bad.Samples[i].AllocsPerOp = 1
		}
	}
	badPath := filepath.Join(t.TempDir(), "baseline.json")
	if err := bad.WriteFile(badPath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run(append(fast, "-baseline", badPath), &out)
	if err == nil {
		t.Fatal("regressed baseline comparison passed")
	}
	for _, want := range []string{"checksum", "allocs/op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output missing %q regression:\n%s", want, out.String())
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix")
	}
	var out strings.Builder
	err := run([]string{"-experiment", "all", "-dist", "sskew", "-requests", "300", "-stride", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Figure 4", "Figure 3", "Figure 2", "Figure 5",
		"Observation 3", "Ablation A1", "Ablation A3", "Ablation A5", "Ablation A6",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("all-run missing %q", want)
		}
	}
}
