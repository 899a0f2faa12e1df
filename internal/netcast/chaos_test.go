package netcast

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/replan"
)

// startFaultyServer is startServer with a fault injector attached.
func startFaultyServer(t *testing.T, prog *core.Program, slot time.Duration, fault FaultInjector) *Server {
	t.Helper()
	srv, err := NewServer(prog, ServerConfig{SlotDuration: slot, Fault: fault})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(context.Background()) }()
	t.Cleanup(func() {
		srv.Stop()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not stop")
		}
	})
	return srv
}

// testPlan builds a chaos.Plan for prog, proving along the way that
// chaos.Plan satisfies the netcast FaultInjector contract with no
// adapter.
func testPlan(t *testing.T, prog *core.Program, cfg chaos.Config) FaultInjector {
	t.Helper()
	plan, err := chaos.NewPlan(cfg, prog.Channels(), prog.Length())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestFrameV1Compat pins that the checksum-less version-1 wire format is
// refused: a frame carrying version 1 is ErrBadFrame even with the zeros
// a version-1 sender wrote in the checksum bytes, so a version byte
// corrupted to 1 is caught like any other flip.
func TestFrameV1Compat(t *testing.T) {
	b := appendFrame(nil, Frame{Channel: 1, Slot: 77, Page: 5})
	b[frameVersionOff] = 1
	binary.BigEndian.PutUint16(b[frameSumOff:], 0)
	if f, err := parseFrame(b); !errors.Is(err, ErrBadFrame) {
		t.Errorf("version-1 frame decoded as %+v, %v", f, err)
	}
	if f, ok := frameFromWords(packFrameWords(b)); ok {
		t.Errorf("frameFromWords decoded a version-1 frame as %+v", f)
	}
}

func TestFrameChecksumRejectsCorruption(t *testing.T) {
	good := appendFrame(nil, Frame{Channel: 2, Slot: 9, Page: 4})
	for _, i := range []int{3, 5, 8, 12, 13, 15} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xA5
		if _, err := parseFrame(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("corrupted byte %d accepted", i)
		}
	}
}

func TestServerStallSilencesAir(t *testing.T) {
	prog := testProgram(t)
	// Stall 3 of every 4 slots: the air is mostly dead but frames that do
	// get through still carry the right schedule column.
	srv := startFaultyServer(t, prog, time.Millisecond,
		testPlan(t, prog, chaos.Config{Seed: 1, StallEvery: 4, StallFor: 3}))
	addr, err := srv.udp.ChannelAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	if err := tuner.Tune(addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f, err := tuner.ReadFrame(2 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if int(f.Slot)%4 < 3 {
			t.Fatalf("received frame from stalled slot %d", f.Slot)
		}
		if want := prog.At(0, int(f.Slot)%prog.Length()); f.Page != want {
			t.Fatalf("slot %d carried page %d, want %d", f.Slot, f.Page, want)
		}
	}
	if got := srv.Faults().StalledSlots; got == 0 {
		t.Error("server counted no stalled slots")
	}
}

func TestServerCorruptionCaughtByChecksum(t *testing.T) {
	prog := testProgram(t)
	// Corrupt every frame: the tuner must discard all of them as bad and
	// count each one.
	srv := startFaultyServer(t, prog, time.Millisecond,
		testPlan(t, prog, chaos.Config{Seed: 2, Corrupt: 1}))
	addr, err := srv.udp.ChannelAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	if err := tuner.Tune(addr); err != nil {
		t.Fatal(err)
	}
	if f, err := tuner.ReadFrame(100 * time.Millisecond); err == nil {
		t.Fatalf("decoded a frame (%+v) from an all-corrupt channel", f)
	}
	if tuner.BadFrames() == 0 {
		t.Error("tuner counted no bad frames on an all-corrupt channel")
	}
	if srv.Faults().CorruptFrames == 0 {
		t.Error("server counted no corrupted frames")
	}
}

func TestServerDropSuppressesFrames(t *testing.T) {
	prog := testProgram(t)
	srv := startFaultyServer(t, prog, time.Millisecond,
		testPlan(t, prog, chaos.Config{Seed: 3, Loss: 1}))
	addr, err := srv.udp.ChannelAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	if err := tuner.Tune(addr); err != nil {
		t.Fatal(err)
	}
	if f, err := tuner.ReadFrame(100 * time.Millisecond); err == nil {
		t.Fatalf("received frame %+v from a total-loss channel", f)
	}
	if tuner.BadFrames() != 0 {
		t.Error("dropped frames must not reach the tuner at all")
	}
	if srv.Faults().DroppedFrames == 0 {
		t.Error("server counted no dropped frames")
	}
}

// TestServerFaultsCountEveryChannel pins that a UDP server with no
// subscribers counts every fault its plan injects on every channel:
// after Run returns, Faults equals the plan's stalls, drops and
// corruptions over the slots the server aired, in the caster's priority
// order (stall, then drop, then corruption).
func TestServerFaultsCountEveryChannel(t *testing.T) {
	prog := testProgram(t)
	plan := testPlan(t, prog, chaos.Config{Seed: 6, Loss: 0.3, Corrupt: 0.2, StallEvery: 8, StallFor: 2})
	srv, err := NewServer(prog, ServerConfig{SlotDuration: time.Millisecond, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Slot() < 64 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	var want FaultStats
	for abs := 0; abs < int(srv.Slot()); abs++ {
		if plan.Stalled(abs) {
			want.StalledSlots++
			continue
		}
		for ch := 0; ch < prog.Channels(); ch++ {
			switch {
			case plan.Drop(ch, abs):
				want.DroppedFrames++
			case plan.Corrupt(ch, abs):
				want.CorruptFrames++
			}
		}
	}
	if got := srv.Faults(); got != want {
		t.Errorf("after %d slots: Faults() = %+v, plan injected %+v", srv.Slot(), got, want)
	}
	if want.StalledSlots == 0 || want.DroppedFrames == 0 || want.CorruptFrames == 0 {
		t.Errorf("plan injected %+v over %d slots: a fault class is missing", want, srv.Slot())
	}
}

// churnStorm hammers the server with concurrent subscribe/unsubscribe
// cycles from many tuners while others read frames — the race test the
// -race gate runs with fault injection both off and on.
func churnStorm(t *testing.T, fault FaultInjector) {
	prog := testProgram(t)
	var srv *Server
	if fault == nil {
		srv = startServer(t, prog, time.Millisecond)
	} else {
		srv = startFaultyServer(t, prog, time.Millisecond, fault)
	}
	addrs := srv.ChannelAddrs()

	const churners = 6
	const readers = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < churners; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tuner, err := NewTuner()
			if err != nil {
				t.Error(err)
				return
			}
			defer tuner.Close()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := tuner.Tune(addrs[(i+n)%len(addrs)]); err != nil {
					t.Error(err)
					return
				}
				if n%3 == 0 {
					if err := tuner.Detach(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tuner, err := NewTuner()
			if err != nil {
				t.Error(err)
				return
			}
			defer tuner.Close()
			if err := tuner.Tune(addrs[i%len(addrs)]); err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Under total stall or loss nothing arrives; the short
				// timeout keeps the reader churning through the socket
				// path either way.
				f, err := tuner.ReadFrame(20 * time.Millisecond)
				if err != nil {
					continue
				}
				if want := prog.At(f.Channel, int(f.Slot)%prog.Length()); f.Page != want {
					t.Errorf("slot %d channel %d carried page %d, want %d",
						f.Slot, f.Channel, f.Page, want)
					return
				}
			}
		}()
	}

	// Poll the concurrent accessors too, so the race detector sees the
	// full read surface against the transmit path.
	deadline := time.After(300 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			_ = srv.Slot()
			_ = srv.Faults()
			_ = srv.udp.Subscribers(0)
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
}

func TestChurnRaceFaultFree(t *testing.T) {
	churnStorm(t, nil)
}

func TestChurnRaceUnderFaults(t *testing.T) {
	prog := testProgram(t)
	churnStorm(t, testPlan(t, prog, chaos.Config{
		Seed: 4, Loss: 0.3, Corrupt: 0.2, StallEvery: 8, StallFor: 2,
		Burst: &chaos.BurstConfig{GoodToBad: 0.1, BadToGood: 0.3, LossBad: 0.9},
	}))
}

// dropColumn suppresses the frames of one schedule column for an
// initial window of absolute slots, deterministically forcing
// SmartFetch to miss the page's early appearances and replan off the
// live stream while every other frame (including the sync frame) still
// flows.
type dropColumn struct {
	ch     int
	col    int
	length int
	until  int
}

func (d dropColumn) Stalled(int) bool { return false }
func (d dropColumn) Drop(ch, slot int) bool {
	return ch == d.ch && slot%d.length == d.col && slot < d.until
}
func (d dropColumn) Corrupt(int, int) bool { return false }

func TestSmartFetchReplansUnderLoss(t *testing.T) {
	prog := longCycleProgram(t) // 1 channel, cycle 32
	const page = core.PageID(7)
	ch, abs, ok := (&Schedule{Program: prog}).Locate(page, 0)
	if !ok {
		t.Fatalf("page %d not in schedule", page)
	}
	// Drop exactly the page's column for the first 8 cycles: the fetch
	// syncs and dozes normally, misses the appearance, and must replan.
	srv, err := NewServer(prog, ServerConfig{
		SlotDuration: time.Millisecond,
		Fault: dropColumn{
			ch: ch, col: abs % prog.Length(), length: prog.Length(),
			until: 8 * prog.Length(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(context.Background()) }()
	defer func() {
		srv.Stop()
		<-done
	}()
	ss, err := ServeSchedule("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	res, err := SmartFetch(ss.Addr().String(), page, 20*time.Second)
	if err != nil {
		t.Fatalf("SmartFetch under loss: %v", err)
	}
	if res.Page != page {
		t.Errorf("fetched page %d, want %d", res.Page, page)
	}
	if res.Replans == 0 {
		t.Error("fetch during the drop window completed without replanning")
	}
	t.Logf("replans=%d active=%d dozed=%d bad=%d elapsed=%v",
		res.Replans, res.ActiveFrames, res.DozedSlots, res.BadFrames, res.Elapsed)
}

// liveReplanStorm is the churn-storm race test for the elastic runtime:
// concurrent tuners subscribe and unsubscribe while the replan engine keeps
// editing the instance and staging fresh snapshots for zero-pause epoch
// flips. Readers only ever see frames that decode cleanly and carry page
// IDs from some staged epoch; the exact flip alignment is pinned by the
// deterministic TestRingEpochFlipZeroPause — here the point is the -race
// coverage of StageProgram/Epoch against the transmit path. The UDP
// variant airs through a Server; the ring variant drives a ring caster
// on its own slot clock, with ring readers in place of tuners.
func liveReplanStorm(t *testing.T, useRing bool) {
	gs, err := core.Geometric(4, 2, []int{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := replan.New(gs, 4)
	if err != nil {
		t.Fatal(err)
	}
	maxPages := eng.GroupSet().Pages() + 1 // edits alternate retire/add on the last group

	// The air: a ring caster on its own slot clock, or a UDP server.
	// stage, epoch and observe are what the replan loop and the observer
	// call on it.
	var stage func(*core.Program) error
	var epoch func() EpochInfo
	var observe func()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if useRing {
		ring, caster := ringCaster(t, eng.Snapshot(), DefaultRingSlots, nil)
		stage, epoch = caster.StageProgram, caster.Epoch
		observe = func() {
			_ = ring.Head()
			_ = caster.Faults()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(time.Millisecond)
			defer ticker.Stop()
			for abs := 0; ; abs++ {
				select {
				case <-stop:
					return
				case <-ticker.C:
					caster.CastSlot(abs)
				}
			}
		}()
		// Ring readers chase the head concurrently with flips.
		for i := 0; i < 3; i++ {
			ch := i % eng.Channels()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var abs int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					f, st := ring.Poll(ch, abs)
					switch st {
					case RingOK:
						if f.Page != core.None && (f.Page < 0 || int(f.Page) >= maxPages) {
							t.Errorf("slot %d ch %d: page %d outside every staged epoch", abs, ch, f.Page)
							return
						}
						abs++
					case RingSkipped:
						abs++
					case RingLost:
						abs = ring.Head() // fell behind: resync
					case RingPending:
						time.Sleep(200 * time.Microsecond)
					default:
						t.Errorf("slot %d ch %d: unexpected status %v", abs, ch, st)
						return
					}
				}
			}()
		}
	} else {
		srv, err := NewServer(eng.Snapshot(), ServerConfig{SlotDuration: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Run(context.Background()) }()
		defer func() {
			srv.Stop()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("Run returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("server did not stop")
			}
		}()
		stage, epoch = srv.StageProgram, srv.Epoch
		observe = func() {
			_ = srv.Slot()
			_ = srv.Faults()
			_ = srv.udp.Subscribers(0)
		}
		addrs := srv.ChannelAddrs()
		for i := 0; i < 4; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				tuner, err := NewTuner()
				if err != nil {
					t.Error(err)
					return
				}
				defer tuner.Close()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := tuner.Tune(addrs[(i+n)%len(addrs)]); err != nil {
						t.Error(err)
						return
					}
					f, err := tuner.ReadFrame(20 * time.Millisecond)
					if err == nil && f.Page != core.None && (f.Page < 0 || int(f.Page) >= maxPages) {
						t.Errorf("slot %d ch %d: page %d outside every staged epoch", f.Slot, f.Channel, f.Page)
						return
					}
					if n%3 == 0 {
						if err := tuner.Detach(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
	}

	// Observer goroutine: the full concurrent read surface, including the
	// epoch accessor, against casts and flips.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastSeq := -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			ep := epoch()
			if ep.Seq < lastSeq {
				t.Errorf("epoch seq went backwards: %d -> %d", lastSeq, ep.Seq)
				return
			}
			lastSeq = ep.Seq
			observe()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The replan loop: retire/add cycling on the last group, each edit
	// staged as a fresh snapshot. The engine itself is single-owner; only
	// the snapshots cross goroutines.
	deadline := time.After(300 * time.Millisecond)
	for i := 0; ; i++ {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			if epoch().Seq == 0 {
				t.Error("storm finished without a single epoch flip")
			}
			return
		default:
		}
		var evErr error
		if i%2 == 0 {
			_, evErr = eng.RetirePage(2)
		} else {
			_, evErr = eng.AddPage(2)
		}
		if evErr != nil {
			t.Error(evErr)
			close(stop)
			wg.Wait()
			return
		}
		if err := stage(eng.Snapshot()); err != nil {
			t.Error(err)
			close(stop)
			wg.Wait()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestChurnRaceLiveReplanUDP(t *testing.T) {
	liveReplanStorm(t, false)
}

func TestChurnRaceLiveReplanRing(t *testing.T) {
	liveReplanStorm(t, true)
}
