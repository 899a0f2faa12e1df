package main

import (
	"strings"
	"testing"
)

func TestRunFigure2Instance(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "3", "-grid"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"min channels:  4",
		"PAMAD over 3 channels",
		"cycle length:  9 slots",
		"[4 2 1]",
		"ch0",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunSufficientIsValid(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "valid broadcast program") {
		t.Errorf("minimum-channel run not valid:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SUSC") {
		t.Errorf("auto did not select SUSC:\n%s", out.String())
	}
}

func TestRunTimesRearranged(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-times", "2,3,4,6,9", "-ratio", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "{t=2:P=2, t=4:P=2, t=8:P=1}") {
		t.Errorf("rearrangement not applied:\n%s", out.String())
	}
}

func TestRunEachAlgorithm(t *testing.T) {
	for _, alg := range []string{"susc", "pamad", "mpb", "opt", "approx"} {
		var out strings.Builder
		args := []string{"-counts", "3,5,3", "-t1", "2", "-alg", alg}
		if alg != "susc" {
			args = append(args, "-channels", "3")
		}
		if err := run(args, &out); err != nil {
			t.Errorf("alg %s: %v", alg, err)
		}
	}
}

func TestRunDistInstance(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-dist", "uniform", "-pages", "80", "-groups", "4", "-channels", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PAMAD") && !strings.Contains(out.String(), "SUSC") {
		t.Errorf("no scheduler reported:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{},                             // no instance source
		{"-times", "2,x"},              // unparsable
		{"-counts", "3", "-alg", "??"}, // unknown algorithm
		{"-dist", "pareto"},            // unknown distribution
		{"-counts", "3,5,3", "-t1", "2", "-alg", "susc", "-channels", "1"}, // insufficient for susc
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunApproxEpsFloor: a slack below 0.01 is refused before any search.
// At ε = 1e-4 the 16-group family (4^15 members) would sit under the
// exact-scan limit and be materialised in memory.
func TestRunApproxEpsFloor(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-alg", "approx", "-eps", "0.0001", "-dist", "uniform", "-groups", "16", "-pages", "1000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "eps") {
		t.Fatalf("err = %v, want the eps range refused", err)
	}
}

func TestSaveAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/prog.json"
	var out strings.Builder
	err := run([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "3", "-save", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "saved program to") {
		t.Errorf("missing save confirmation:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-load", path, "-grid"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"(loaded) over 3 channels", "cycle length:  9 slots", "[4 2 1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("loaded output missing %q:\n%s", want, s)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-load", "/nonexistent/prog.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
}
