// Command loadgen drives large simulated client populations through the
// in-process broadcast transport and records latency, deadline-miss and
// fault-ledger results per scenario.
//
// It sweeps the matrix of -dists × -channels × -loss × -churn, runs each
// combination through loadgen.RunStream, prints one table row per
// scenario, and stores the full results under
//
//	<out>/<timestamp>/<config>/{config.json,summary.json,ledger.json}
//
// For every fault-free scenario the run self-verifies: the metrics
// aggregated from the simulated clients must be bit-identical to
// sim.MeasureStream on the same request stream, or the run fails.
//
//	go run ./cmd/loadgen -clients 100000                  # paper knee, faults off
//	go run ./cmd/loadgen -dists uniform,sskew -loss 0,0.1 -churn 0,0.05
//	go run ./cmd/loadgen -clients 1000000 -pagechoice zipf -theta 0.8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tcsa/internal/chaos"
	"tcsa/internal/loadgen"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	clients := fs.Int("clients", 100_000, "simulated clients per scenario")
	dists := fs.String("dists", "uniform", "comma-separated group-size distributions (uniform|normal|lskew|sskew)")
	channels := fs.String("channels", "0", "comma-separated channel counts (0 = knee, ceil(min/5))")
	loss := fs.String("loss", "0", "comma-separated frame-loss probabilities")
	churn := fs.String("churn", "0", "comma-separated client-churn probabilities")
	corrupt := fs.Float64("corrupt", 0, "frame-corruption probability (all scenarios)")
	jitter := fs.Float64("jitter", 0, "slot-boundary jitter bound in slots (all scenarios)")
	stallEvery := fs.Int("stallevery", 0, "server stall period in slots (0 = no stalls)")
	stallFor := fs.Int("stallfor", 0, "stalled slots per period")
	pageChoice := fs.String("pagechoice", "uniform", "page popularity model (uniform|zipf)")
	theta := fs.Float64("theta", 0, "zipf skew for -pagechoice zipf")
	seed := fs.Int64("seed", 1, "master seed (stream and fault plan)")
	workers := fs.Int("workers", 0, "client shard workers draining the ring (0 = GOMAXPROCS); the fold after the air uses GOMAXPROCS")
	outDir := fs.String("out", "results", "base directory for result artifacts (empty = don't write)")
	stamp := fs.String("stamp", "", "results subdirectory name (default: UTC timestamp)")
	verify := fs.Bool("verify", true, "cross-check fault-free scenarios against sim.MeasureStream")
	if err := fs.Parse(args); err != nil {
		return err
	}

	distList, err := parseDists(*dists)
	if err != nil {
		return err
	}
	chanList, err := workload.ParseInts(*channels)
	if err != nil {
		return fmt.Errorf("-channels: %w", err)
	}
	lossList, err := parseFloats(*loss)
	if err != nil {
		return fmt.Errorf("-loss: %w", err)
	}
	churnList, err := parseFloats(*churn)
	if err != nil {
		return fmt.Errorf("-churn: %w", err)
	}
	choice := workload.UniformPages
	switch *pageChoice {
	case "uniform":
	case "zipf":
		choice = workload.ZipfPages
	default:
		return fmt.Errorf("unknown -pagechoice %q", *pageChoice)
	}

	dir := ""
	if *outDir != "" {
		name := *stamp
		if name == "" {
			name = time.Now().UTC().Format("20060102T150405Z")
		}
		dir = filepath.Join(*outDir, name)
	}

	fmt.Fprintf(out, "%-40s %8s %4s %6s %9s %9s %9s %8s %9s\n",
		"config", "clients", "ch", "cycle", "avg_wait", "p99_wait", "miss", "effloss", "unserved")
	for _, d := range distList {
		for _, ch := range chanList {
			for _, ls := range lossList {
				for _, cu := range churnList {
					cfg := loadgen.Config{
						Clients:    *clients,
						Dist:       d,
						Channels:   ch,
						Seed:       *seed,
						PageChoice: choice,
						Theta:      *theta,
						Fault: chaos.Config{
							Seed:       *seed,
							Loss:       ls,
							Churn:      cu,
							Corrupt:    *corrupt,
							Jitter:     *jitter,
							StallEvery: *stallEvery,
							StallFor:   *stallFor,
						},
					}
					if err := runScenario(cfg, *workers, dir, *verify, out); err != nil {
						return err
					}
				}
			}
		}
	}
	if dir != "" {
		fmt.Fprintf(out, "results written to %s\n", dir)
	}
	return nil
}

// runScenario measures one matrix cell, prints its table row, verifies
// the fault-free identity when asked, and persists the result artifacts.
func runScenario(cfg loadgen.Config, workers int, dir string, verify bool, out io.Writer) error {
	a, stream, err := loadgen.Materialize(cfg)
	if err != nil {
		return err
	}
	res, err := loadgen.RunStream(context.Background(), a, stream, cfg.Fault, loadgen.Options{Workers: workers})
	if err != nil {
		return err
	}
	label := loadgen.ConfigLabel(cfg)
	fmt.Fprintf(out, "%-40s %8d %4d %6d %9.3f %9.3f %9.5f %8.4f %9d\n",
		label, res.Clients, res.Channels, res.CycleLen,
		res.AvgWait, res.Wait.P99, res.MissRatio, res.EffectiveLoss, res.Ledger.Unserved)
	if verify && !cfg.Fault.Active() {
		m, err := sim.MeasureStream(a, stream)
		if err != nil {
			return err
		}
		if res.Metrics != *m {
			return fmt.Errorf("%s: transport metrics diverge from sim.MeasureStream:\nloadgen: %+v\n    sim: %+v",
				label, res.Metrics, *m)
		}
		fmt.Fprintf(out, "%-40s verified bit-identical to sim.MeasureStream\n", label)
	}
	if dir != "" {
		if err := loadgen.WriteResult(filepath.Join(dir, label), cfg, res); err != nil {
			return err
		}
	}
	return nil
}

func parseDists(s string) ([]workload.Distribution, error) {
	var out []workload.Distribution
	for _, f := range strings.Split(s, ",") {
		d, err := workload.ParseDistribution(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
