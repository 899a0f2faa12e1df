// Command aircast puts a broadcast program on real (UDP) air and fetches
// pages from it — the networked end-to-end demonstration of the system.
//
// Serve a schedule (prints one UDP address per broadcast channel):
//
//	aircast -serve -counts 3,5,3 -t1 2 -channels 3 -slot 10ms -duration 5s
//
// Fetch a page from a running server (tunes to the channel, counts the
// frames it had to observe — the real waiting time in slots):
//
//	aircast -fetch 127.0.0.1:41234 -page 4 -timeout 3s
//
// Serve through a deterministic fault injector (chaos): frame loss, burst
// erasures, server stalls and corruption, all replayable from -chaosseed.
// Any fault flag that injects a fault turns the injector on:
//
//	aircast -serve -counts 3,5,3 -loss 0.1 -burst 0.05,0.25,0,0.8 \
//	        -stall 64/4 -corrupt 0.02 -chaosseed 7
//
// Demonstrate a zero-pause live replan: after ~N slots on air the server
// retires a page through the incremental replan engine and stages the
// delta; the broadcast flips to the new program at the next cycle
// boundary without skipping a slot:
//
//	aircast -serve -counts 3,5,3 -slot 5ms -duration 2s -replanafter 40
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"tcsa"
	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/netcast"
	"tcsa/internal/replan"
	"tcsa/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aircast:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aircast", flag.ContinueOnError)
	serve := fs.Bool("serve", false, "run a broadcast server (publishes the schedule over TCP too)")
	fetch := fs.String("fetch", "", "channel address to fetch from (host:port), camping on the channel")
	smart := fs.String("smart", "", "schedule (TCP) address for a schedule-aware, dozing fetch")
	page := fs.Int("page", 0, "page ID to fetch")
	timeout := fs.Duration("timeout", 5*time.Second, "fetch timeout")
	slot := fs.Duration("slot", 10*time.Millisecond, "slot duration on air")
	duration := fs.Duration("duration", 0, "serve duration (0 = forever)")
	counts := fs.String("counts", "", "comma-separated per-group page counts")
	dist := fs.String("dist", "", "group-size distribution: uniform|normal|lskew|sskew")
	pages := fs.Int("pages", 100, "total pages for -dist")
	groups := fs.Int("groups", 4, "groups for -dist")
	t1 := fs.Int("t1", 4, "smallest expected time")
	ratio := fs.Int("ratio", 2, "geometric ratio c")
	channels := fs.Int("channels", 0, "channel budget (0 = minimum)")
	loss := fs.Float64("loss", 0, "per-(channel,slot) i.i.d. frame-loss probability (with -serve)")
	corrupt := fs.Float64("corrupt", 0, "per-(channel,slot) frame-corruption probability (with -serve)")
	stall := fs.String("stall", "", "server stall window as every/for slots, e.g. 64/4 (with -serve)")
	burst := fs.String("burst", "", "Gilbert-Elliott burst loss as g2b,b2g,lossgood,lossbad (with -serve)")
	chaosSeed := fs.Int64("chaosseed", 1, "fault-injector seed; same seed replays the same faults (with -serve)")
	replanAfter := fs.Int("replanafter", 0, "retire a page via the incremental replan engine after ~N slots and flip the program live (with -serve)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	faultFlags := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "loss", "corrupt", "stall", "burst", "chaosseed":
			faultFlags = true
		}
	})
	if faultFlags && !*serve {
		return fmt.Errorf("-loss, -corrupt, -stall, -burst and -chaosseed require -serve")
	}
	fault, err := parseFault(*chaosSeed, *loss, *corrupt, *stall, *burst)
	if err != nil {
		return err
	}
	if *replanAfter < 0 || (*replanAfter > 0 && !*serve) {
		return fmt.Errorf("-replanafter requires -serve and a positive slot count")
	}

	switch {
	case *serve:
		return runServe(out, *counts, *dist, *pages, *groups, *t1, *ratio, *channels, *slot, *duration, fault, *replanAfter)
	case *fetch != "":
		return runFetch(out, *fetch, core.PageID(*page), *timeout)
	case *smart != "":
		return runSmart(out, *smart, core.PageID(*page), *timeout)
	default:
		return fmt.Errorf("one of -serve, -fetch or -smart is required")
	}
}

func runSmart(out io.Writer, scheduleAddr string, page core.PageID, timeout time.Duration) error {
	res, err := netcast.SmartFetch(scheduleAddr, page, timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "received page %d: %d active frames, dozed %d slots (%.1fms total)\n",
		res.Page, res.ActiveFrames, res.DozedSlots,
		float64(res.Elapsed.Microseconds())/1000)
	if res.Replans > 0 || res.BadFrames > 0 {
		fmt.Fprintf(out, "channel was lossy: %d replans, %d corrupted frames discarded\n",
			res.Replans, res.BadFrames)
	}
	return nil
}

// parseFault assembles and validates the fault config the fault flags
// describe; it injects nothing unless Active.
func parseFault(seed int64, loss, corrupt float64, stall, burst string) (chaos.Config, error) {
	cfg := chaos.Config{Seed: seed, Loss: loss, Corrupt: corrupt}
	if stall != "" {
		if _, err := fmt.Sscanf(stall, "%d/%d", &cfg.StallEvery, &cfg.StallFor); err != nil {
			return cfg, fmt.Errorf("parsing -stall %q (want every/for): %w", stall, err)
		}
	}
	if burst != "" {
		b := &chaos.BurstConfig{}
		if _, err := fmt.Sscanf(burst, "%g,%g,%g,%g",
			&b.GoodToBad, &b.BadToGood, &b.LossGood, &b.LossBad); err != nil {
			return cfg, fmt.Errorf("parsing -burst %q (want g2b,b2g,lossgood,lossbad): %w", burst, err)
		}
		cfg.Burst = b
	}
	return cfg, cfg.Validate()
}

func runServe(out io.Writer, counts, dist string, pages, groups, t1, ratio, channels int, slot, duration time.Duration, fault chaos.Config, replanAfter int) error {
	gs, err := workload.ParseInstance(counts, dist, pages, groups, t1, ratio)
	if err != nil {
		return err
	}
	n := channels
	if n == 0 {
		n = gs.MinChannels()
	}
	// A live replan needs the engine to own the on-air program, so the
	// demo pins the PAMAD path; otherwise the facade picks the scheduler.
	var eng *replan.Engine
	var prog *core.Program
	algo := "replan/PAMAD"
	if replanAfter > 0 {
		eng, err = replan.New(gs, n)
		if err != nil {
			return err
		}
		prog = eng.Snapshot()
	} else {
		sched, err := tcsa.Build(gs, n)
		if err != nil {
			return err
		}
		prog, algo = sched.Program, string(sched.Algorithm)
	}
	srvCfg := netcast.ServerConfig{SlotDuration: slot}
	if fault.Active() {
		if srvCfg.Fault, err = chaos.NewPlan(fault, prog.Channels(), prog.Length()); err != nil {
			return err
		}
	}
	srv, err := netcast.NewServer(prog, srvCfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "broadcasting %v with %s over %d channels, cycle %d slots, slot %v\n",
		gs, algo, n, prog.Length(), slot)
	if srvCfg.Fault != nil {
		fmt.Fprintln(out, "fault injection on: frames may stall, drop, or arrive corrupted")
	}
	for ch, addr := range srv.ChannelAddrs() {
		fmt.Fprintf(out, "channel %d: %v\n", ch, addr)
	}
	ss, err := netcast.ServeSchedule("127.0.0.1:0", srv)
	if err != nil {
		return err
	}
	defer ss.Close()
	fmt.Fprintf(out, "schedule: %v\n", ss.Addr())
	ctx := context.Background()
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}
	if eng != nil {
		go func() {
			time.Sleep(time.Duration(replanAfter) * slot)
			d, err := eng.RetirePage(gs.Len() - 1)
			if err != nil {
				fmt.Fprintf(out, "live replan failed: %v\n", err)
				return
			}
			if err := srv.StageProgram(eng.Snapshot()); err != nil {
				fmt.Fprintf(out, "staging replanned program failed: %v\n", err)
				return
			}
			fmt.Fprintf(out, "live replan staged: retired a page from group %d (%v delta, %d cells cleared, %d placed); flip lands at the next cycle boundary\n",
				gs.Len()-1, d.Kind, d.ClearedCells, d.PlacedCells)
		}()
	}
	if err := srv.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprintf(out, "stopped after %d slots\n", srv.Slot())
	if eng != nil {
		ep := srv.Epoch()
		fmt.Fprintf(out, "final epoch %d on air (flipped at slot %d, cycle %d slots)\n",
			ep.Seq, ep.Base, ep.Program.Length())
	}
	if srvCfg.Fault != nil {
		f := srv.Faults()
		fmt.Fprintf(out, "faults injected: %d stalled slots, %d dropped frames, %d corrupted frames\n",
			f.StalledSlots, f.DroppedFrames, f.CorruptFrames)
	}
	fmt.Fprintf(out, "schedule sends failed: %d\n", ss.SendErrors())
	return nil
}

func runFetch(out io.Writer, addr string, page core.PageID, timeout time.Duration) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("resolving %q: %w", addr, err)
	}
	tuner, err := netcast.NewTuner()
	if err != nil {
		return err
	}
	defer tuner.Close()
	if err := tuner.Tune(udpAddr); err != nil {
		return err
	}
	start := time.Now()
	frames, err := tuner.WaitForPage(page, timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "received page %d after %d frames (%.1fms)\n",
		page, frames, float64(time.Since(start).Microseconds())/1000)
	return nil
}
