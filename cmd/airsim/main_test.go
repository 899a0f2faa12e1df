package main

import (
	"strings"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
)

func TestRunBasic(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "3", "-requests", "200"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"PAMAD over 3 channels", "served on air:   200", "avg wait"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestRunScanMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "4", "-mode", "scan", "-requests", "100"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scan mode") {
		t.Errorf("missing mode marker:\n%s", out.String())
	}
}

func TestRunWithImpatienceAndOnDemand(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-counts", "10,10,10", "-t1", "2", "-channels", "2",
		"-abandon", "1.0", "-service", "2", "-requests", "300",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "abandoned:") {
		t.Fatalf("missing abandonment line:\n%s", s)
	}
	if !strings.Contains(s, "on-demand channel") {
		t.Errorf("abandonments did not reach the on-demand section:\n%s", s)
	}
}

// TestRunTraceThroughHybrid: with -abandon the run goes through
// hybrid.Run, and -trace still sees the air's events, defections included.
func TestRunTraceThroughHybrid(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-counts", "10,10,10", "-t1", "2", "-channels", "2",
		"-abandon", "1.0", "-requests", "300", "-trace", "20",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"trace (20 of ", " abandon page=", "on-demand channel"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestRunDistWorkload(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-dist", "sskew", "-pages", "100", "-groups", "4", "-channels", "0", "-requests", "100"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SUSC") {
		t.Errorf("minimum channels should select SUSC:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{},                                    // no instance
		{"-counts", "3", "-mode", "teleport"}, // unknown mode
		{"-counts", "x"},                      // unparsable
		{"-dist", "pareto"},                   // unknown distribution
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunWithTrace(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "3", "-requests", "20", "-trace", "50"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "trace (") || !strings.Contains(s, "serve") {
		t.Errorf("trace output missing:\n%s", s)
	}
}

func TestRunWithLossModels(t *testing.T) {
	for _, extra := range [][]string{
		{"-loss", "0.2"},
		{"-loss", "0.2", "-burst"},
	} {
		args := append([]string{"-counts", "3,5,3", "-t1", "2", "-channels", "4", "-requests", "100"}, extra...)
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if !strings.Contains(out.String(), "served on air:   100") {
			t.Errorf("%v: clients lost under loss model:\n%s", extra, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-counts", "3", "-loss", "0.95", "-burst"}, &out); err == nil {
		t.Error("burst rate above in-fade rate accepted")
	}
}

func TestRunParallelSampler(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-counts", "3,5,3", "-t1", "2", "-channels", "3",
		"-requests", "70000", "-parallel", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"streaming sampler, 2 workers", "clients:         70000", "avg delay", "wait p95/p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestRunParallelSamplerConflicts(t *testing.T) {
	base := []string{"-counts", "3,5,3", "-t1", "2", "-channels", "3", "-parallel", "2"}
	for _, extra := range [][]string{
		{"-abandon", "1.0"},
		{"-loss", "0.1"},
		{"-trace", "5"},
		{"-mode", "scan"},
	} {
		var out strings.Builder
		if err := run(append(append([]string{}, base...), extra...), &out); err == nil {
			t.Errorf("%v combined with -parallel accepted", extra)
		}
	}
}

func TestRunWithOnlineTier(t *testing.T) {
	for _, split := range []string{"reserved:1", "pure", "steal:2"} {
		var out strings.Builder
		err := run([]string{
			"-dist", "uniform", "-pages", "100", "-groups", "4", "-channels", "2",
			"-abandon", "1.0", "-requests", "500", "-online", "lwf", "-split", split,
		}, &out)
		if err != nil {
			t.Fatalf("split %s: %v", split, err)
		}
		s := out.String()
		for _, want := range []string{"online tier (lwf policy", "defectors:", "avg flow:"} {
			if !strings.Contains(s, want) {
				t.Errorf("split %s: missing %q:\n%s", split, want, s)
			}
		}
		if strings.Contains(s, "on-demand channel") {
			t.Errorf("split %s: queueing section printed with -online:\n%s", split, s)
		}
	}
}

func TestRunOnlineTierErrors(t *testing.T) {
	tests := [][]string{
		{"-counts", "3,5,3", "-online", "lwf"},                                       // no -abandon
		{"-counts", "3,5,3", "-abandon", "1.0", "-online", "teleport"},               // bad policy
		{"-counts", "3,5,3", "-abandon", "1.0", "-online", "lwf", "-split", "quota"}, // bad split
	}
	for _, args := range tests {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestScanBurstPlanCoversSweep: a scanning run's burst tape covers its
// whole sweep (channels+1 cycles on a wide program), not only the
// default MaxCycles+2 cycles, and an aware run keeps the default tape.
func TestScanBurstPlanCoversSweep(t *testing.T) {
	gs, err := core.Geometric(2, 2, []int{40, 40, 40})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 80)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := faultConfig(0.3, true, 1, prog, chaos.Scanning)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scan.Horizon, (prog.Channels()+1)*prog.Length(); got != want {
		t.Errorf("scan horizon %d slots, want the %d-slot sweep", got, want)
	}
	aware, err := faultConfig(0.3, true, 1, prog, chaos.ScheduleAware)
	if err != nil {
		t.Fatal(err)
	}
	if h := aware.Horizon; h != 0 {
		t.Errorf("aware horizon %d, want the derived default", h)
	}
}
