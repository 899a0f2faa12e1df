// Command airsched builds a broadcast program for a time-constrained
// instance and prints it.
//
// Instances come either from explicit per-page expected times (rearranged
// onto geometric groups, paper Section 2) or from one of the paper's
// synthetic group-size distributions:
//
//	airsched -times 2,3,4,6,9 -channels 0
//	airsched -dist uniform -pages 1000 -groups 8 -t1 4 -ratio 2 -channels 20
//	airsched -counts 3,5,3 -t1 2 -ratio 2 -channels 3 -alg pamad -grid
//
// -channels 0 uses the Theorem 3.1 minimum. -alg auto picks SUSC when the
// budget suffices and PAMAD otherwise; susc, pamad, mpb, opt and approx
// force one scheduler (approx is the (1+ε) PTAS, tuned with -eps).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tcsa"
	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/mpb"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airsched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airsched", flag.ContinueOnError)
	times := fs.String("times", "", "comma-separated per-page expected times (rearranged with -ratio)")
	counts := fs.String("counts", "", "comma-separated per-group page counts (geometric times from -t1, -ratio)")
	dist := fs.String("dist", "", "group-size distribution: uniform|normal|lskew|sskew")
	pages := fs.Int("pages", 1000, "total pages for -dist")
	groups := fs.Int("groups", 8, "groups for -dist")
	t1 := fs.Int("t1", 4, "smallest expected time")
	ratio := fs.Int("ratio", 2, "geometric ratio c")
	channels := fs.Int("channels", 0, "channel budget (0 = Theorem 3.1 minimum)")
	alg := fs.String("alg", "auto", "scheduler: auto|susc|pamad|mpb|opt|approx")
	eps := fs.Float64("eps", 0, "approximation slack for -alg approx, at least 0.01 (0 = default 0.1)")
	grid := fs.Bool("grid", false, "print the full program grid")
	save := fs.String("save", "", "write the program (with its instance) to this JSON file")
	load := fs.String("load", "", "load a program from this JSON file instead of scheduling")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		prog  *core.Program
		name  string
		freqs []int
		n     int
	)
	if *load != "" {
		loaded, err := loadProgram(*load)
		if err != nil {
			return err
		}
		prog, name, n = loaded, "(loaded)", loaded.Channels()
		for i := 0; i < prog.GroupSet().Len(); i++ {
			first, _ := prog.GroupSet().GroupPages(i)
			freqs = append(freqs, len(prog.Appearances(first)))
		}
	} else {
		gs, err := instance(*times, *counts, *dist, *pages, *groups, *t1, *ratio)
		if err != nil {
			return err
		}
		n = *channels
		if n == 0 {
			n = gs.MinChannels()
		}
		prog, name, freqs, err = build(gs, n, *alg, *eps)
		if err != nil {
			return err
		}
	}
	gs := prog.GroupSet()
	if *save != "" {
		if err := saveProgram(*save, prog); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved program to %s\n", *save)
	}
	a := core.Analyze(prog)
	fmt.Fprintf(out, "instance:      %v\n", gs)
	fmt.Fprintf(out, "min channels:  %d (Theorem 3.1)\n", gs.MinChannels())
	fmt.Fprintf(out, "algorithm:     %s over %d channels\n", name, n)
	fmt.Fprintf(out, "cycle length:  %d slots\n", prog.Length())
	fmt.Fprintf(out, "frequencies:   %v\n", freqs)
	fmt.Fprintf(out, "occupancy:     %.1f%%\n", 100*prog.Occupancy())
	fmt.Fprintf(out, "avg wait:      %.3f slots\n", a.AvgWait())
	fmt.Fprintf(out, "avg delay:     %.3f slots beyond expected time\n", a.AvgDelay())
	fmt.Fprintf(out, "miss ratio:    %.3f\n", a.MissProbability())
	if err := prog.Validate(); err != nil {
		fmt.Fprintf(out, "validity:      INVALID under Section 3.1 (expected when channels < minimum): %v\n", err)
	} else {
		fmt.Fprintf(out, "validity:      valid broadcast program (all expected times met)\n")
	}
	if *grid {
		fmt.Fprint(out, prog.String())
	}
	return nil
}

// instance materialises the group set from whichever source flag was given.
func instance(times, counts, dist string, pages, groups, t1, ratio int) (*core.GroupSet, error) {
	switch {
	case times != "":
		ts, err := workload.ParseInts(times)
		if err != nil {
			return nil, err
		}
		r, err := core.Rearrange(ts, ratio)
		if err != nil {
			return nil, err
		}
		return r.Set, nil
	case counts == "" && dist == "":
		return nil, fmt.Errorf("one of -times, -counts or -dist is required")
	default:
		return workload.ParseInstance(counts, dist, pages, groups, t1, ratio)
	}
}

func build(gs *core.GroupSet, n int, alg string, eps float64) (*core.Program, string, []int, error) {
	switch alg {
	case "auto":
		sched, err := tcsa.Build(gs, n)
		if err != nil {
			return nil, "", nil, err
		}
		return sched.Program, string(sched.Algorithm), sched.Frequencies, nil
	case "susc":
		prog, err := susc.Build(gs, n)
		if err != nil {
			return nil, "", nil, err
		}
		return prog, "SUSC", delaymodel.SufficientFrequencies(gs), nil
	case "pamad":
		prog, res, err := pamad.Build(gs, n)
		if err != nil {
			return nil, "", nil, err
		}
		return prog, "PAMAD", res.Frequencies, nil
	case "mpb":
		prog, res, err := mpb.Build(gs, n)
		if err != nil {
			return nil, "", nil, err
		}
		return prog, "m-PB", res.Frequencies, nil
	case "opt":
		prog, res, err := opt.Build(context.Background(), gs, n, opt.Options{})
		if err != nil {
			return nil, "", nil, err
		}
		return prog, "OPT", res.Frequencies, nil
	case "approx":
		prog, res, err := opt.BuildApprox(context.Background(), gs, n, opt.ApproxOptions{Eps: eps})
		if err != nil {
			return nil, "", nil, err
		}
		return prog, "OPT-PTAS", res.Frequencies, nil
	default:
		return nil, "", nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}

// saveProgram writes prog as self-contained JSON.
func saveProgram(path string, prog *core.Program) error {
	data, err := json.MarshalIndent(prog, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// loadProgram reads and re-validates a saved program.
func loadProgram(path string) (*core.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prog core.Program
	if err := json.Unmarshal(data, &prog); err != nil {
		return nil, err
	}
	return &prog, nil
}
