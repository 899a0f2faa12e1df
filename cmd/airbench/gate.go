package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tcsa/internal/perf"
)

// gate is one benchmark-trajectory gate. run performs the gate's
// in-process assertions and records its samples; runGate then compares
// the samples against the committed BENCH_<name>.json.
type gate struct {
	name string
	run  func(rec *recorder) error
}

// gates is the registry behind -gate. Adding a gate is one line here plus
// its run function and a committed baseline.
var gates = []gate{
	{"sweep", runSweep},
	{"build", runBuild},
	{"chaos", runChaos},
	{"netcast", runNetcast},
	{"optscale", func(rec *recorder) error { return runOptscale(rec, optscaleCases()) }},
	{"replan", runReplan},
	{"hybrid", runHybrid},
}

// runGates runs the named gate, or every gate for "all", in dir. Under
// "all" every gate runs even when an earlier one fails, so each leaves its
// _new report behind for review.
func runGates(name, dir string, out io.Writer) error {
	if name != "all" {
		for _, g := range gates {
			if g.name == name {
				return runGate(g, dir, out)
			}
		}
		return fmt.Errorf("unknown gate %q (want %s)", name, gateNames())
	}
	var errs []error
	for _, g := range gates {
		errs = append(errs, runGate(g, dir, out))
	}
	return errors.Join(errs...)
}

// gateNames lists the -gate values: every registered gate, then all.
func gateNames() string {
	names := make([]string, 0, len(gates)+1)
	for _, g := range gates {
		names = append(names, g.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// runGate runs g, writes its report to dir/BENCH_<name>_new.json and
// compares that against the committed dir/BENCH_<name>.json, which it
// never writes.
func runGate(g gate, dir string, out io.Writer) error {
	fmt.Fprintf(out, "==> gate %s\n", g.name)
	rec := newRecorder(out)
	if err := g.run(rec); err != nil {
		return fmt.Errorf("gate %s: %w", g.name, err)
	}
	path := filepath.Join(dir, "BENCH_"+g.name+"_new.json")
	if err := rec.rep.WriteFile(path); err != nil {
		return fmt.Errorf("gate %s: %w", g.name, err)
	}
	fmt.Fprintf(out, "wrote %s (%d samples)\n", path, len(rec.rep.Samples))

	baseline := filepath.Join(dir, "BENCH_"+g.name+".json")
	base, err := perf.ReadFile(baseline)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("gate %s: no committed baseline %s; review %s and commit it under that name",
			g.name, baseline, path)
	}
	if err != nil {
		return fmt.Errorf("gate %s: read baseline: %w", g.name, err)
	}
	regs := perf.Compare(base, &rec.rep)
	if len(regs) == 0 {
		fmt.Fprintf(out, "no regressions against %s\n", baseline)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(out, "REGRESSION:", r)
	}
	return fmt.Errorf("gate %s: %d regression(s) against %s", g.name, len(regs), baseline)
}

// recorder accumulates one gate's report and echoes each sample to out.
type recorder struct {
	out io.Writer
	rep perf.Report
}

func newRecorder(out io.Writer) *recorder {
	return &recorder{out: out, rep: perf.Report{
		Schema:   perf.SchemaVersion,
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
	}}
}

// add records one benchmark result under name, with the checksum of the
// series it computed ("" when it has none), and returns the sample.
func (rec *recorder) add(name string, r testing.BenchmarkResult, checksum string) perf.Sample {
	s := perf.Sample{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Checksum:    checksum,
	}
	rec.rep.Samples = append(rec.rep.Samples, s)
	fmt.Fprintf(rec.out, "%-24s %12.0f ns/op %10d allocs/op %12d B/op", name, s.NsPerOp, s.AllocsPerOp, s.BytesPerOp)
	if checksum != "" {
		fmt.Fprintf(rec.out, "  series %s", checksum)
	}
	fmt.Fprintln(rec.out)
	return s
}
