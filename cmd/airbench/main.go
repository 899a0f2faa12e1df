// Command airbench regenerates the evaluation artifacts of
// "Time-Constrained Service on Air" (ICDCS 2005): each figure and table of
// the paper's Section 5, plus the ablations listed in DESIGN.md.
//
//	airbench -experiment fig5 -dist uniform        # one Figure 5 subplot
//	airbench -experiment fig5 -dist all            # all four subplots
//	airbench -experiment fig3                      # group-size shapes
//	airbench -experiment fig4                      # parameter table
//	airbench -experiment knee                      # the 1/5-of-minimum rule
//	airbench -experiment tiebreak -dist uniform    # ablation A1
//	airbench -experiment modelcheck -dist uniform  # ablation A3
//	airbench -experiment optgap -dist all          # PAMAD-vs-OPT gap
//	airbench -experiment optprune -dist uniform    # OPT pruning ablation
//	airbench -experiment all                       # everything above
//
// -csv switches Figure 5 output to CSV for plotting; -stride k samples
// every k-th channel count to trade resolution for speed.
//
// The package's golden test (golden_test.go) pins the checksums and
// allocation counts of the committed samples; `go test ./cmd/airbench`
// runs it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tcsa/internal/experiments"
	"tcsa/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "fig5", "fig2|fig3|fig4|fig5|knee|tiebreak|modelcheck|optgap|optprune|baselines|fairness|all")
	dist := fs.String("dist", "all", "uniform|normal|lskew|sskew|all")
	requests := fs.Int("requests", 3000, "requests per measured point (paper: 3000)")
	seed := fs.Int64("seed", 1, "master seed")
	stride := fs.Int("stride", 1, "sample every k-th channel count")
	skipOPT := fs.Bool("skipopt", false, "skip the OPT series in fig5")
	csv := fs.Bool("csv", false, "emit CSV instead of tables (fig5 only)")
	plot := fs.Bool("plot", false, "append an ASCII chart per fig5 subplot")
	workers := fs.Int("parallel", 0, "fan fig5 channel counts over this many workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := experiments.DefaultParams()
	p.Requests = *requests
	p.Seed = *seed
	p.ChannelStride = *stride
	p.SkipOPT = *skipOPT

	dists, err := parseDists(*dist)
	if err != nil {
		return err
	}
	ctx := context.Background()

	runOne := func(name string) error {
		switch name {
		case "fig2":
			s, err := experiments.Figure2()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, s)
		case "fig3":
			rows, err := experiments.Figure3(p)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiments.RenderFigure3(rows))
		case "fig4":
			fmt.Fprintln(out, experiments.RenderFigure4(p))
		case "fig5":
			for _, d := range dists {
				s, err := experiments.Figure5(ctx, p, d, *workers)
				if err != nil {
					return err
				}
				if *csv {
					fmt.Fprint(out, s.CSV())
				} else {
					fmt.Fprintln(out, s.Table())
				}
				if *plot {
					fmt.Fprintln(out, s.Plot(64, 16))
				}
			}
		case "knee":
			var results []*experiments.KneeResult
			for _, d := range dists {
				s, err := experiments.Figure5(ctx, p, d, 0)
				if err != nil {
					return err
				}
				k, err := experiments.Knee(s, 1)
				if err != nil {
					return err
				}
				results = append(results, k)
			}
			fmt.Fprintln(out, experiments.RenderKnee(results))
		case "tiebreak":
			for _, d := range dists {
				pts, err := experiments.AblateTieBreak(p, d)
				if err != nil {
					return err
				}
				fmt.Fprintln(out, experiments.RenderTieBreak(d, pts))
			}
		case "modelcheck":
			for _, d := range dists {
				pts, err := experiments.ModelCheck(p, d)
				if err != nil {
					return err
				}
				fmt.Fprintln(out, experiments.RenderModelCheck(d, pts))
			}
		case "baselines":
			for _, d := range dists {
				pts, err := experiments.AblateBaselines(p, d)
				if err != nil {
					return err
				}
				fmt.Fprintln(out, experiments.RenderBaselines(d, pts))
			}
		case "fairness":
			for _, d := range dists {
				pts, err := experiments.Fairness(p, d)
				if err != nil {
					return err
				}
				fmt.Fprintln(out, experiments.RenderFairness(d, pts))
			}
		case "optprune":
			for _, d := range dists {
				pts, err := experiments.AblateOptPruning(ctx, p, d)
				if err != nil {
					return err
				}
				fmt.Fprintln(out, experiments.RenderOptPrune(d, pts))
			}
		case "optgap":
			var gaps []*experiments.OptGap
			for _, d := range dists {
				g, err := experiments.AblateOptGap(ctx, p, d)
				if err != nil {
					return err
				}
				gaps = append(gaps, g)
			}
			fmt.Fprintln(out, experiments.RenderOptGap(gaps))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if *experiment == "all" {
		for _, name := range []string{"fig4", "fig3", "fig2", "fig5", "knee", "tiebreak", "modelcheck", "optgap", "optprune", "baselines", "fairness"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*experiment)
}

func parseDists(s string) ([]workload.Distribution, error) {
	if s == "all" {
		return workload.Distributions(), nil
	}
	d, err := workload.ParseDistribution(s)
	if err != nil {
		return nil, err
	}
	return []workload.Distribution{d}, nil
}
