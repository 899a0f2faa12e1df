package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestFullResultsGolden renders `airbench -experiment all -stride 1` and
// compares it byte for byte with docs/full_results.txt, the snapshot
// EXPERIMENTS.md quotes, so a change to any experiment's output shows
// here. After a deliberate change, regenerate the snapshot with that
// command. It takes seconds, so -short and -race skip it, like the slow
// golden rows.
func TestFullResultsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full experiment matrix at stride 1; skipped under -short and -race")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "full_results.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-experiment", "all", "-stride", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("docs/full_results.txt line %d:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, docs/full_results.txt %d", len(gotLines), len(wantLines))
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
