package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcsa/internal/perf"
)

// TestRunGate drives a cheap gate, the miniature optscale ladder, through
// runGate in a temp dir: a missing baseline fails and names the _new
// report, a matching baseline passes without its bytes changing, and a
// doctored checksum fails with the drift named. A stub gate then shows
// that runGate holds allocs/op to the fixed growth bound.
func TestRunGate(t *testing.T) {
	dir := t.TempDir()
	g := gate{"optscale", func(rec *recorder) error { return runOptscale(rec, optscaleTestLadder(false)) }}
	newPath := filepath.Join(dir, "BENCH_optscale_new.json")
	basePath := filepath.Join(dir, "BENCH_optscale.json")
	var out strings.Builder

	err := runGate(g, dir, &out)
	if err == nil || !strings.Contains(err.Error(), newPath) {
		t.Fatalf("missing baseline: err = %v, want a failure naming %s", err, newPath)
	}
	if _, err := os.Stat(basePath); !os.IsNotExist(err) {
		t.Fatalf("gate wrote its baseline %s (stat err %v)", basePath, err)
	}

	// Commit the report as the baseline; a rerun must pass, write a fresh
	// _new report and leave the baseline's bytes alone.
	committed, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(newPath); err != nil {
		t.Fatal(err)
	}
	if err := runGate(g, dir, &out); err != nil {
		t.Fatalf("rerun against its own report drifted: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(newPath); err != nil {
		t.Errorf("rerun did not write %s: %v", newPath, err)
	}
	if got, err := os.ReadFile(basePath); err != nil || !bytes.Equal(got, committed) {
		t.Errorf("baseline bytes changed by a gate run (err %v)", err)
	}

	// A baseline claiming a different vector must fail the comparison.
	rep, err := perf.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	rep.Samples[0].Checksum = "0000000000000000"
	if err := rep.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runGate(g, dir, &out); err == nil {
		t.Fatal("doctored baseline comparison passed")
	}
	if !strings.Contains(out.String(), "checksum") {
		t.Errorf("comparison output missing checksum regression:\n%s", out.String())
	}

	// The optscale samples record no allocations, so a stub measuring 100
	// allocs/op checks the gate's allocation bound against a 1-alloc
	// baseline.
	stub := gate{"optscale", func(rec *recorder) error {
		rec.add("S", testing.BenchmarkResult{N: 1, MemAllocs: 100}, "")
		return nil
	}}
	rep.Samples = []perf.Sample{{Name: "S", Iterations: 1, AllocsPerOp: 1}}
	if err := rep.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runGate(stub, dir, &out); err == nil {
		t.Fatal("allocs/op growth 1 -> 100 passed the gate")
	}
	if !strings.Contains(out.String(), "allocs/op") {
		t.Errorf("comparison output missing allocs/op regression:\n%s", out.String())
	}
}

// TestGateRegistryMatchesBaselines: gate names are unique, each gate has a
// committed baseline at the repository root, every baseline there has a
// gate, and no baseline sits in this package's directory.
func TestGateRegistryMatchesBaselines(t *testing.T) {
	registered := map[string]bool{}
	for _, g := range gates {
		if registered[g.name] {
			t.Errorf("gate %q registered twice", g.name)
		}
		registered[g.name] = true
		if _, err := perf.ReadFile("../../BENCH_" + g.name + ".json"); err != nil {
			t.Errorf("gate %q has no committed baseline: %v", g.name, err)
		}
	}
	for _, pattern := range []string{"../../BENCH_*.json", "BENCH_*.json"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
			switch {
			case strings.HasSuffix(name, "_new"):
			case filepath.Dir(f) == ".":
				t.Errorf("stray baseline %s: baselines live at the repository root", f)
			case !registered[name]:
				t.Errorf("baseline %s has no gate", f)
			}
		}
	}
}
