package main

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/delaymodel"
	"tcsa/internal/experiments"
	"tcsa/internal/loadgen"
	"tcsa/internal/netcast"
	"tcsa/internal/online"
	"tcsa/internal/opt"
	"tcsa/internal/pamad"
	"tcsa/internal/perf"
	"tcsa/internal/replan"
	"tcsa/internal/sim"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// sample is one golden row's workload: run is the measured operation,
// and series, read after it, is what the row's checksum fingerprints
// (nil for a row without one).
type sample struct {
	run    func()
	series func() []float64
}

// goldenRow pins one deterministic result of the reproduction.
type goldenRow struct {
	name string
	// sum is perf.SeriesChecksum of the row's series, "" when it has none.
	sum string
	// allocs is the allocation base one run is held to, or noAllocs.
	allocs int64
	// procs is the GOMAXPROCS the allocs base was recorded at.
	procs int
	// slow marks a row that takes seconds, skipped under -short and
	// under the race detector, which would stretch it to minutes.
	slow bool
	// setup builds the row's inputs outside the measurement.
	setup func(t *testing.T) sample
}

// noAllocs marks a row whose base carries a checksum only.
const noAllocs = -1

// allocsWithin is the allocation rule every row with a base is held to:
// a run may allocate up to 1.5× its base, or base+2 for a tiny base, so
// one stray allocation does not trip a 6-alloc row.
func allocsWithin(base, got int64) bool {
	return got <= base+2 || float64(got) <= 1.5*float64(base)
}

// speedupFloors are the two wall-time claims the rows back: a single-page
// replan (half a retire/add pair) beats a from-scratch rebuild, and the
// sharded UDP slot path beats the serial per-subscriber transmit loop,
// each by at least speedupFloor×.
var speedupFloors = []struct {
	slow, fast string
	events     float64 // operations in one run of fast
}{
	{"ReplanFullRebuild", "ReplanRetireAddPair", 2},
	{"UDPSlotSerial", "UDPSlotSharded", 1},
}

const speedupFloor = 10.0

// TestGolden runs every row at its recorded GOMAXPROCS, asserts its
// checksum verbatim and holds its allocations to allocsWithin, then
// holds the speedup floors. A row with an allocs base runs twice and
// keeps the smaller count and time: the first run pays for state built
// on first use (a goroutine, a scratch buffer), the second can overlap
// background work the first left running (a transmit worker fanning a
// frame out), and the benchmark loops that recorded the bases amortised
// both away. Allocation counts and wall times mean nothing under the race
// detector, so only the checksums are held there.
func TestGolden(t *testing.T) {
	elapsed := map[string]time.Duration{}
	for _, row := range goldenRows() {
		t.Run(row.name, func(t *testing.T) {
			if row.slow && (testing.Short() || raceEnabled) {
				t.Skip("takes seconds; skipped under -short and -race")
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.procs))
			s := row.setup(t)
			allocs, took := measure(s.run)
			if row.allocs != noAllocs {
				a, d := measure(s.run)
				allocs, took = min(allocs, a), min(took, d)
			}
			elapsed[row.name] = took
			t.Logf("%v, %d allocs at GOMAXPROCS %d", took, allocs, row.procs)

			if s.series != nil {
				if got := perf.SeriesChecksum(s.series()); got != row.sum {
					t.Errorf("checksum %s, want %s", got, row.sum)
				}
			} else if row.sum != "" {
				t.Errorf("row pins checksum %s but computes no series", row.sum)
			}
			if !raceEnabled && row.allocs != noAllocs && !allocsWithin(row.allocs, allocs) {
				t.Errorf("%d allocs, base %d allows at most max(1.5×base, base+2)", allocs, row.allocs)
			}
		})
	}
	if raceEnabled {
		return
	}
	for _, f := range speedupFloors {
		slow, okSlow := elapsed[f.slow]
		fast, okFast := elapsed[f.fast]
		if !okSlow || !okFast {
			continue
		}
		speedup := slow.Seconds() / (fast.Seconds() / f.events)
		t.Logf("%s over %s: %.0f×", f.fast, f.slow, speedup)
		if speedup < speedupFloor {
			t.Errorf("%s only %.1f× faster per event than %s, want >= %.0f×", f.fast, speedup, f.slow, speedupFloor)
		}
	}
}

// TestRunBench runs the sweep and build rows outside the timing harness
// and checks what they fingerprint: every row that computes a series
// yields a 16-hex checksum equal to its pin, and Measure and
// MeasureParallel, which by the engine's determinism contract see the
// same stream the same way, compute the same checksum.
func TestRunBench(t *testing.T) {
	sums := map[string]string{}
	for _, name := range []string{
		"AppearanceIndex", "Analyze", "Measure", "MeasureParallel", "Figure5/S-skewed",
		"SUSCBuild", "PAMADBuild", "OPTSearch", "ApproxQualityX100",
	} {
		row := pinnedRow(t, name)
		s := row.setup(t)
		s.run()
		if s.series == nil {
			continue
		}
		got := perf.SeriesChecksum(s.series())
		if len(got) != 16 || got != row.sum {
			t.Errorf("%s: checksum %q, want %q", name, got, row.sum)
		}
		sums[name] = got
	}
	if serial, par := sums["Measure"], sums["MeasureParallel"]; serial == "" || serial != par {
		t.Errorf("Measure checksum %q != MeasureParallel checksum %q", serial, par)
	}
}

// pinnedRow returns the golden row called name.
func pinnedRow(t *testing.T, name string) goldenRow {
	t.Helper()
	for _, row := range goldenRows() {
		if row.name == name {
			return row
		}
	}
	t.Fatalf("no golden row %q", name)
	return goldenRow{}
}

// measure runs op once after a collection and returns the heap
// allocations the process made meanwhile and the wall time op took.
func measure(op func()) (int64, time.Duration) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	op()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs), took
}

// goldenRows is the committed table. Rows that share a checksum share a
// result: the zero-fault chaos and loadgen runs reproduce
// sim.MeasureStream, the faulted loadgen run reproduces the chaos engine,
// and the replan engine's grid after a retire/add round trip is the
// from-scratch build.
func goldenRows() []goldenRow {
	ctx := context.Background()
	rows := []goldenRow{
		// The analysis and sweep hot paths on the paper instance.
		{"AppearanceIndex", "", 4, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return sample{run: func() { core.BuildAppearanceIndex(f.prog) }}
		}},
		{"Analyze", "da836e9c58a23f8b", 6, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			var a *core.Analysis
			return sample{
				run:    func() { a = core.Analyze(f.prog) },
				series: func() []float64 { return []float64{a.AvgDelay()} },
			}
		}},
		{"Measure", "028b4e0458fcd735", 17, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return metricsSample(t, func() (*sim.Metrics, error) { return sim.MeasureStream(f.analysis, f.stream) })
		}},
		{"MeasureParallel", "028b4e0458fcd735", 28, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return metricsSample(t, func() (*sim.Metrics, error) { return sim.MeasureParallel(f.analysis, f.stream, 0) })
		}},
		{"Figure5/S-skewed", "45c9386e1d4ca54f", 299, 2, false, func(t *testing.T) sample {
			p := experiments.DefaultParams()
			p.Requests, p.ChannelStride, p.SkipOPT = 300, 8, true
			var s *experiments.Fig5Series
			return sample{
				run: func() {
					var err error
					if s, err = experiments.Figure5(ctx, p, workload.SSkewed, 0); err != nil {
						t.Fatal(err)
					}
				},
				series: func() []float64 { return seriesFloats(s) },
			}
		}},

		// The three schedulers' build paths on the paper instance, and
		// the (1+ε) PTAS against PAMAD's analytic delay at ×100 scale.
		{"SUSCBuild", "e4ddc0cfe2bf1b1f", 2, 1, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return gridSample(t, func() (*core.Program, error) { return susc.BuildMinimal(f.gs) })
		}},
		{"PAMADBuild", "f0cbf0300327f805", 35, 1, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return gridSample(t, func() (*core.Program, error) {
				prog, _, err := pamad.Build(f.gs, f.n)
				return prog, err
			})
		}},
		{"OPTSearch", "f00984276bfe0b08", 50, 1, false, func(t *testing.T) sample {
			f := mustPaper(t)
			var res *opt.Result
			return sample{
				run: func() {
					var err error
					if res, err = opt.Search(ctx, f.gs, f.n, opt.Options{}); err != nil {
						t.Fatal(err)
					}
				},
				series: func() []float64 { return optFloats(res) },
			}
		}},
		{"ApproxQualityX100", "17aa88d7dbf111cf", 65788, 1, false, func(t *testing.T) sample {
			p := experiments.DefaultParams()
			big, err := workload.GroupSet(workload.Uniform, p.Groups, 100*p.Pages, workload.PaperBaseTime, workload.PaperRatio)
			if err != nil {
				t.Fatal(err)
			}
			var quality []float64
			return sample{
				run: func() {
					quality = quality[:0]
					for _, div := range []int{5, 3, 2} {
						n := core.CeilDiv(big.MinChannels(), div)
						res, err := opt.Approx(ctx, big, n, opt.ApproxOptions{Eps: 0.01})
						if err != nil {
							t.Fatal(err)
						}
						sp, _, err := pamad.Frequencies(big, n)
						if err != nil {
							t.Fatal(err)
						}
						quality = append(quality, float64(n), res.Delay, delaymodel.GroupDelay(big, sp, n))
					}
				},
				series: func() []float64 {
					for i := 0; i+2 < len(quality); i += 3 {
						t.Logf("@%4.0f channels: PTAS D' %10.2f  PAMAD D' %10.2f  gap %.4f",
							quality[i], quality[i+1], quality[i+2], quality[i+2]/quality[i+1])
					}
					return quality
				},
			}
		}},

		// The chaos engine with faults off and under the all-class mix.
		{"ChaosZeroFault", "028b4e0458fcd735", 21, 1, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return chaosSample(t, func() (*chaos.Result, error) {
				return chaos.RunParallel(f.analysis, f.stream, chaos.Config{Seed: 1}, 0)
			}, false)
		}},
		{"ChaosFaulted", "af208276e5ce9d7f", 136, 1, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return chaosSample(t, func() (*chaos.Result, error) {
				return chaos.RunParallel(f.analysis, f.stream, chaosFaultedConfig(1), 0)
			}, true)
		}},

		// The fan-out engine: one slot published into the ring (the
		// checksum is a full aired cycle polled back out), the loadgen
		// client harness through the ring, and UDP fan-out to 10k
		// subscribers.
		{"FanoutRingPublish", "a4a4e841229e13cf", 0, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			ringSlots := 1
			for ringSlots < f.prog.Length() {
				ringSlots <<= 1
			}
			ring, err := netcast.NewBroadcastRing(f.prog.Channels(), ringSlots)
			if err != nil {
				t.Fatal(err)
			}
			caster, err := netcast.NewCaster(f.prog, ring, nil)
			if err != nil {
				t.Fatal(err)
			}
			for abs := 0; abs < f.prog.Length(); abs++ {
				caster.CastSlot(abs)
			}
			cycle := make([]float64, 0, f.prog.Channels()*f.prog.Length())
			for ch := 0; ch < f.prog.Channels(); ch++ {
				for abs := int64(0); abs < int64(f.prog.Length()); abs++ {
					fr, st := ring.Poll(ch, abs)
					if st != netcast.RingOK {
						t.Fatalf("ring poll (%d, %d) = %v, want RingOK", ch, abs, st)
					}
					cycle = append(cycle, float64(fr.Page))
				}
			}
			return sample{
				run:    func() { caster.CastSlot(f.prog.Length()) },
				series: func() []float64 { return cycle },
			}
		}},
		{"LoadgenRingZeroFault", "028b4e0458fcd735", 61, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return chaosSample(t, func() (*chaos.Result, error) {
				res, err := loadgen.RunStream(ctx, f.analysis, f.stream, chaos.Config{Seed: 1}, loadgen.Options{})
				if err != nil {
					return nil, err
				}
				return &res.Result, nil
			}, false)
		}},
		{"LoadgenRingFaulted", "af208276e5ce9d7f", 178, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			return chaosSample(t, func() (*chaos.Result, error) {
				res, err := loadgen.RunStream(ctx, f.analysis, f.stream, chaosFaultedConfig(1), loadgen.Options{})
				if err != nil {
					return nil, err
				}
				return &res.Result, nil
			}, true)
		}},
		// UDPSlotSharded times what one slot costs the server's tick
		// goroutine: the cast into its one-slot ring and the Send that
		// hands each channel's frame to the UDP transport. Channel 0's
		// frame goes into its worker's 1,024-deep mailbox with a
		// non-blocking send; the other channels have no subscribers, so
		// their Publish returns at once. It does not time delivery; a
		// loop of back-to-back slots overruns channel 0's mailbox on
		// almost every frame, so its speedup over UDPSlotSerial is a
		// bound on the clock's cost, not a throughput figure.
		{"UDPSlotSharded", "bac9463477066f16", 0, 2, false, func(t *testing.T) sample {
			f := mustPaper(t)
			tr, err := netcast.NewUDPTransport(f.prog.Channels(), "")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			if err := tr.Provision(0, udpSubscribers(t)); err != nil {
				t.Fatal(err)
			}
			ring, err := netcast.NewBroadcastRing(f.prog.Channels(), 1)
			if err != nil {
				t.Fatal(err)
			}
			caster, err := netcast.NewCaster(f.prog, ring, nil)
			if err != nil {
				t.Fatal(err)
			}
			return sample{
				run: func() {
					caster.CastSlot(0)
					ring.Send(tr, 0)
				},
				series: func() []float64 {
					t.Logf("%d frames overran a mailbox", tr.Overruns())
					return []float64{udpBenchSubs}
				},
			}
		}},
		// UDPSlotSerial is the pre-Transport transmit loop: one
		// sequential syscall per subscriber on the slot clock's goroutine.
		{"UDPSlotSerial", "bac9463477066f16", 1, 2, false, func(t *testing.T) sample {
			addrs, sender := udpSubscribers(t), udpSender(t)
			frame := make([]byte, netcast.FrameSize)
			return sample{
				run: func() {
					for _, a := range addrs {
						if _, err := sender.WriteToUDP(frame, a); err != nil {
							t.Fatal(err)
						}
					}
				},
				series: func() []float64 { return []float64{udpBenchSubs} },
			}
		}},
		// UDPWireBatched is one full fan-out batched through sendmmsg.
		{"UDPWireBatched", "bac9463477066f16", 1, 2, false, func(t *testing.T) sample {
			batcher := netcast.NewBatcher(udpSender(t))
			ds := netcast.NewDestSet(udpSubscribers(t))
			frame := make([]byte, netcast.FrameSize)
			return sample{
				run: func() {
					if sent := batcher.Fanout(frame, ds); sent != udpBenchSubs {
						t.Fatalf("batched fan-out sent %d of %d", sent, udpBenchSubs)
					}
				},
				series: func() []float64 { return []float64{udpBenchSubs} },
			}
		}},

		// Incremental replan at 10^5 pages against the rebuild it
		// replaces.
		{"ReplanFullRebuild", "0efe268ae2e9588f", 35, 2, false, func(t *testing.T) sample {
			gs, n := mustReplanInstance(t)
			return gridSample(t, func() (*core.Program, error) {
				prog, _, err := pamad.Build(gs, n)
				return prog, err
			})
		}},
		{"ReplanRetireAddPair", "0efe268ae2e9588f", 65, 2, false, func(t *testing.T) sample {
			gs, n := mustReplanInstance(t)
			eng, err := replan.New(gs, n)
			if err != nil {
				t.Fatal(err)
			}
			// One retire + one add on the last group: a suffix replay plus
			// an append, the two incremental paths a single-page delta
			// takes.
			return sample{
				run: func() {
					if _, err := eng.RetirePage(gs.Len() - 1); err != nil {
						t.Fatal(err)
					}
					if _, err := eng.AddPage(gs.Len() - 1); err != nil {
						t.Fatal(err)
					}
				},
				series: func() []float64 { return gridFloats(eng.Program()) },
			}
		}},

		// The online hybrid tier, alone and coupled to the broadcast.
		{"OnlineLWFReserved", "a8a781a9962f2000", 75, 1, false, func(t *testing.T) sample {
			prog, stream, ocfg := hybridBenchInstance(t)
			var res *online.Result
			return sample{
				run: func() {
					var err error
					if res, err = online.Run(prog, stream, ocfg); err != nil {
						t.Fatal(err)
					}
				},
				series: func() []float64 { return onlineSeries(res) },
			}
		}},
		{"HybridMatrix", "7b752381b0d676b3", 1645, 1, false, func(t *testing.T) sample {
			p, rates, splits := hybridMatrixSpec()
			var pts []hybridPoint
			return sample{
				run:    func() { pts = hybridMatrix(t, p, rates, splits, online.Policies()) },
				series: func() []float64 { return hybridSeries(pts) },
			}
		}},
	}

	// The optimizer-scaling ladder: single-shot rungs that never measured
	// allocations, so they carry checksums only. The h16 search and the
	// h20 PTAS take seconds.
	ladder := map[string]struct {
		sum  string
		slow bool
	}{
		"OptScaleKnee_h8":      {"017959000f712347", false},
		"OptScaleWide_h10":     {"a71551267cd1485d", false},
		"OptScaleSkew_h16":     {"466eb4d8eea05c9e", true},
		"OptScaleFrontier_h20": {"eaf3dd9ba7c47963", true},
	}
	for _, tc := range optscaleCases() {
		pin := ladder[tc.name]
		rows = append(rows, goldenRow{tc.name, pin.sum, noAllocs, 1, pin.slow, func(t *testing.T) sample {
			var vals []float64
			return sample{
				run: func() {
					var err error
					if vals, err = optscaleRung(tc); err != nil {
						t.Fatal(err)
					}
				},
				series: func() []float64 { return vals },
			}
		}})
	}
	return rows
}

// metricsSample fingerprints one measurement by metricsFloats.
func metricsSample(t *testing.T, measure func() (*sim.Metrics, error)) sample {
	var m *sim.Metrics
	return sample{
		run: func() {
			var err error
			if m, err = measure(); err != nil {
				t.Fatal(err)
			}
		},
		series: func() []float64 { return metricsFloats(m) },
	}
}

// gridSample fingerprints one built program by gridFloats.
func gridSample(t *testing.T, build func() (*core.Program, error)) sample {
	var prog *core.Program
	return sample{
		run: func() {
			var err error
			if prog, err = build(); err != nil {
				t.Fatal(err)
			}
		},
		series: func() []float64 { return gridFloats(prog) },
	}
}

// chaosSample fingerprints one chaos-engine result: a faulted run by
// chaosFloats, a zero-fault one by metricsFloats alone, which is how it
// matches sim.MeasureStream's row.
func chaosSample(t *testing.T, runChaos func() (*chaos.Result, error), faulted bool) sample {
	var r *chaos.Result
	return sample{
		run: func() {
			var err error
			if r, err = runChaos(); err != nil {
				t.Fatal(err)
			}
		},
		series: func() []float64 {
			if faulted {
				return chaosFloats(r)
			}
			return metricsFloats(&r.Metrics)
		},
	}
}

// mustReplanInstance returns the 10^5-page replan instance and its
// channel count, 1/5 of the minimum.
func mustReplanInstance(t *testing.T) (*core.GroupSet, int) {
	t.Helper()
	gs, err := replanInstance()
	if err != nil {
		t.Fatal(err)
	}
	return gs, core.CeilDiv(gs.MinChannels(), 5)
}

// TestAllocBound pins allocsWithin at its edges: the absolute slack
// governs tiny bases, the 1.5× growth factor large ones.
func TestAllocBound(t *testing.T) {
	for _, tc := range []struct {
		base, got int64
		ok        bool
	}{
		{0, 2, true}, {0, 3, false},
		{6, 9, true}, {6, 10, false},
		{100, 150, true}, {100, 151, false},
		{35, 35, true}, {35, 20, true},
	} {
		if got := allocsWithin(tc.base, tc.got); got != tc.ok {
			t.Errorf("allocsWithin(%d, %d) = %v, want %v", tc.base, tc.got, got, tc.ok)
		}
	}
}
