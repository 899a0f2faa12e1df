// Command bench is the repository's end-to-end benchmark: six workloads
// that take the paper's instance from parameters to served clients through
// the public layer functions, each run in its own child process at
// GOMAXPROCS=2, with correctness gates that must pass before any number is
// kept. See README.md.
//
//	bash bench/run.sh                                  # all workloads
//	bash bench/run.sh -workload paper-serve -seed 3    # one workload
//	bash bench/run.sh -trace 1                         # plus a traced run
//	bash bench/run.sh -compare results/A results/B     # verdicts under the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"tcsa/internal/stats"
)

// childEnv marks a re-executed child process that runs one workload and
// reports on standard output.
const childEnv = "TCSA_BENCH_CHILD"

// childProcs is the GOMAXPROCS of every workload process: the benchmark
// machine's two cores, and the same on any machine it is compared on.
const childProcs = 2

// childTimeout bounds one workload process.
const childTimeout = 170 * time.Second

// workloadFuncs runs each workload of BENCHMARK.json.
var workloadFuncs = map[string]func(*run) error{
	"paper-serve":  paperServe.run,
	"lossy-air":    lossyAir.run,
	"pull-tier":    pullTier,
	"catalog-x100": catalogX100.run,
	"live-catalog": liveCatalog,
	"udp-air":      udpAir,
}

// result is what a workload process reports.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Correct   bool                 `json:"correct"`
	Error     string               `json:"error,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	StealS    float64              `json:"steal_s"`
	Samples   map[string][]float64 `json:"samples"`
	Pooled    map[string]int       `json:"pooled,omitempty"` // observations behind a pooled percentile
	Layers    map[string]float64   `json:"layers,omitempty"`
}

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: every workload in BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := flag.Int("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: after the untraced run, run each workload traced and report per-layer metrics")
	compare := flag.String("compare", "", "compare the result set in this directory against the one named by the next argument")
	out := flag.String("out", "", "results directory (default: bench/results beside BENCHMARK.json)")
	flag.Parse()

	s, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare A B takes two result directories")
			os.Exit(2)
		}
		os.Exit(compareSets(s, *compare, flag.Arg(0), os.Stdout))
	}
	if *seconds == 0 {
		*seconds = s.RunSeconds
	}
	if *out == "" {
		*out = filepath.Join(root, "bench", "results")
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if os.Getenv(childEnv) != "" {
		os.Exit(child(*workloadName, *seed, *seconds, *trace == 1, *out))
	}

	names := []string{*workloadName}
	if *workloadName == "" {
		names = nil
		for _, w := range s.Workloads {
			names = append(names, w.Name)
		}
	} else if !s.workload(*workloadName) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	stamp := time.Now().UTC().Format("20060102T150405.000000000Z")
	code := 0
	for _, name := range names {
		line, ok := parent(s, name, *seed, *seconds, *trace == 1, filepath.Join(*out, stamp, name))
		if !ok {
			code = 1
		}
		if len(names) == 1 && line != nil {
			fmt.Println(string(line))
		}
	}
	os.Exit(code)
}

// child runs one workload in this process and prints its result as the
// last line of standard output.
func child(name string, seed int64, seconds int, traced bool, dir string) int {
	res, tr := runWorkload(name, seed, time.Duration(seconds)*time.Second, false, traced)
	if tr != nil && res.Correct {
		if err := tr.writeJSONL(filepath.Join(dir, "trace.jsonl")); err != nil {
			res.Correct, res.Error = false, err.Error()
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process. toy selects test-sized
// inputs.
func runWorkload(name string, seed int64, budget time.Duration, toy, traced bool) (*result, *tracer) {
	r := newRun(name, seed, budget, toy, traced)
	res := &result{Workload: name, Seed: seed}
	fn, ok := workloadFuncs[name]
	var err error
	if !ok {
		err = fmt.Errorf("no workload %q", name)
	} else {
		err = fn(r)
	}
	if err == nil {
		if len(r.samples["rss_peak_mb"]) == 0 {
			r.sample("rss_peak_mb", peakRSSMiB())
		}
		r.runtimeLayers()
	}
	res.Correct = err == nil
	if err != nil {
		res.Error = err.Error()
	}
	res.Attempted, res.Failed, res.StealS = r.attempted, r.failed, r.steal
	res.Samples, res.Pooled, res.Layers = r.samples, r.pooled, r.layers
	return res, r.tr
}

// spawn re-executes this binary as a child process for one workload.
func spawn(name string, seed int64, seconds int, traced bool, dir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds),
		"-trace", strconv.Itoa(boolInt(traced)),
		"-out", dir)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(childProcs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, errors.Join(fmt.Errorf("%s: no result from the workload process", name), runErr)
	}
	return &res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// parent runs one workload in a child process (twice, untraced then
// traced, with -trace 1), writes its result files, prints its metrics and
// returns its result line.
func parent(s *spec, name string, seed int64, seconds int, traced bool, dir string) ([]byte, bool) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	cfg := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"gomaxprocs": childProcs, "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	if err := writeJSON(filepath.Join(dir, "config.json"), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}

	res, err := spawn(name, seed, seconds, false, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	sum, err := summarize(s, res)
	if err == nil {
		err = writeJSON(filepath.Join(dir, "summary.json"), sum)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	printSummary(os.Stdout, s, sum)
	if !sum.Correct {
		fmt.Printf("FAIL %s: %s\n", name, res.Error)
		return nil, false
	}
	metrics := map[string]lineMetric{}
	for _, m := range s.EndToEnd {
		metrics[m.Name] = lineMetric{Value: sum.Metrics[m.Name].Median, Unit: m.Unit}
	}
	attempted, failed := res.Attempted, res.Failed

	if traced {
		tres, err := spawn(name, seed, seconds, true, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return nil, false
		}
		if !tres.Correct {
			fmt.Printf("FAIL %s (traced): %s\n", name, tres.Error)
			return nil, false
		}
		layers, err := layerReport(s, sum, tres)
		if err == nil {
			err = writeJSON(filepath.Join(dir, "layers.json"), layers)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return nil, false
		}
		printLayers(os.Stdout, s, layers)
		metrics = map[string]lineMetric{}
		for _, m := range s.PerLayer {
			metrics[m.Name] = lineMetric{Value: layers.Metrics[m.Name].Value, Unit: m.Unit}
		}
		attempted, failed = tres.Attempted, tres.Failed
	}
	line, err := json.Marshal(resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	return line, true
}

// resultLine is the last line of standard output: the result, for tools.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is summary.json: every end-to-end metric as the median over the
// run's timed repetitions, with quartiles. A pooled percentile is one value
// per run, and its n counts the observations it was taken over.
type summary struct {
	Workload  string                   `json:"workload"`
	Seed      int64                    `json:"seed"`
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	StealS    float64                  `json:"steal_s"` // hypervisor steal taken out of the timings
	Metrics   map[string]metricSummary `json:"metrics"`
}

type metricSummary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(s *spec, res *result) (*summary, error) {
	sum := &summary{
		Workload: res.Workload, Seed: res.Seed, Correct: res.Correct,
		Attempted: res.Attempted, Failed: res.Failed, StealS: res.StealS,
		Metrics: map[string]metricSummary{},
	}
	if !res.Correct {
		return sum, nil
	}
	for _, m := range s.metricsOf(res.Workload) {
		xs := res.Samples[m.Name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		q1, q3 := quartiles(xs)
		ms := metricSummary{Median: stats.Percentile(xs, 0.5), Q1: q1, Q3: q3, N: len(xs), Unit: m.Unit}
		if n, ok := res.Pooled[m.Name]; ok {
			ms.N = n
		}
		if math.IsNaN(ms.Median) || math.IsInf(ms.Median, 0) || ms.Median <= 0 {
			return nil, fmt.Errorf("%s: metric %s = %v, want a positive finite value", res.Workload, m.Name, ms.Median)
		}
		sum.Metrics[m.Name] = ms
	}
	return sum, nil
}

func printSummary(w io.Writer, s *spec, sum *summary) {
	fmt.Fprintf(w, "%s  seed %d  attempted %d  failed %d  steal %.2f s\n", sum.Workload, sum.Seed, sum.Attempted, sum.Failed, sum.StealS)
	for _, m := range s.metricsOf(sum.Workload) {
		ms, ok := sum.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-18s %14.6g %-10s q1 %.6g  q3 %.6g  n %d\n", m.Name, ms.Median, m.Unit, ms.Q1, ms.Q3, ms.N)
	}
}

// layers is layers.json: the traced run's per-layer metrics, each with the
// end-to-end metric and workloads it should move, and the tracing
// overhead against the untraced run.
type layers struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Metrics  map[string]layerMetric `json:"metrics"`
	Overhead map[string]float64     `json:"tracing_overhead"`
}

type layerMetric struct {
	Value     float64  `json:"value"`
	Unit      string   `json:"unit"`
	Moves     string   `json:"moves"`
	Workloads []string `json:"on"`
}

func layerReport(s *spec, untraced *summary, tres *result) (*layers, error) {
	moves := map[string]layerMove{}
	for _, lm := range layerMoves {
		moves[lm.layer] = lm
	}
	l := &layers{Workload: tres.Workload, Seed: tres.Seed, Metrics: map[string]layerMetric{}, Overhead: map[string]float64{}}
	for _, m := range s.PerLayer {
		v := tres.Layers[m.Name] // zero: the workload never calls the layer
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: layer metric %s = %v", tres.Workload, m.Name, v)
		}
		lm := moves[m.Name]
		l.Metrics[m.Name] = layerMetric{Value: v, Unit: m.Unit, Moves: lm.endToEnd, Workloads: lm.workloads}
	}
	for _, m := range s.metricsOf(tres.Workload) {
		base := untraced.Metrics[m.Name].Median
		if xs := tres.Samples[m.Name]; len(xs) > 0 && base != 0 {
			l.Overhead[m.Name] = stats.Percentile(xs, 0.5)/base - 1
		}
	}
	return l, nil
}

func printLayers(w io.Writer, s *spec, l *layers) {
	fmt.Fprintf(w, "%s  traced: per-layer metrics\n", l.Workload)
	for _, m := range s.PerLayer {
		lm := l.Metrics[m.Name]
		if lm.Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, lm.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s  tracing overhead (traced median / untraced median - 1)\n", l.Workload)
	for _, m := range s.metricsOf(l.Workload) {
		if o, ok := l.Overhead[m.Name]; ok {
			fmt.Fprintf(w, "  %-18s %+7.2f%%\n", m.Name, 100*o)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
