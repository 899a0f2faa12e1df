package netcast

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"tcsa/internal/core"
	"tcsa/internal/susc"
)

// testProgram builds the Section 3.1 example program: 2 channels, cycle 4.
func testProgram(t *testing.T) *core.Program {
	t.Helper()
	gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 3}})
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// startServer runs a server in the background and returns it plus a
// cleanup that stops it and waits for Run to return.
func startServer(t *testing.T, prog *core.Program, slot time.Duration) *Server {
	t.Helper()
	srv, err := NewServer(prog, ServerConfig{SlotDuration: slot})
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

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Channel: 0, Slot: 0, Page: 0},
		{Channel: 3, Slot: 12345, Page: 999},
		{Channel: 65535, Slot: 1<<32 - 1, Page: core.None},
	} {
		buf := appendFrame(nil, f)
		if len(buf) != FrameSize {
			t.Fatalf("encoded %d bytes, want %d", len(buf), FrameSize)
		}
		got, err := parseFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Errorf("round trip %+v -> %+v", f, got)
		}
	}
}

func TestParseFrameRejects(t *testing.T) {
	good := appendFrame(nil, Frame{Channel: 1, Slot: 2, Page: 3})
	if _, err := parseFrame(good[:10]); !errors.Is(err, ErrBadFrame) {
		t.Error("short frame accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF // magic
	if _, err := parseFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	bad[2] = 99 // version
	if _, err := parseFrame(bad); !errors.Is(err, ErrBadFrame) {
		t.Error("bad version accepted")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, ServerConfig{SlotDuration: time.Millisecond}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := NewServer(testProgram(t), ServerConfig{}); err == nil {
		t.Error("zero slot duration accepted")
	}
}

func TestSubscribeReceiveCyclic(t *testing.T) {
	prog := testProgram(t)
	srv := startServer(t, prog, time.Millisecond)
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

	// Collect a handful of frames and verify they follow the program
	// column sequence on channel 0 (tolerating initial offset and the odd
	// dropped datagram by checking each frame against its slot index).
	for i := 0; i < 12; i++ {
		f, err := tuner.ReadFrame(2 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Channel != 0 {
			t.Fatalf("frame from channel %d", f.Channel)
		}
		want := prog.At(0, int(f.Slot)%prog.Length())
		if f.Page != want {
			t.Fatalf("slot %d carried page %d, want %d", f.Slot, f.Page, want)
		}
	}
}

func TestChannelAddrs(t *testing.T) {
	srv := startServer(t, testProgram(t), time.Millisecond)
	addrs := srv.ChannelAddrs()
	if len(addrs) != 2 {
		t.Fatalf("%d addresses, want 2", len(addrs))
	}
	if addrs[0].Port == addrs[1].Port {
		t.Error("channels share a port")
	}
	if _, err := srv.udp.ChannelAddr(9); err == nil {
		t.Error("bad channel index accepted")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	srv := startServer(t, testProgram(t), time.Millisecond)
	addr, _ := srv.udp.ChannelAddr(0)
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	if err := tuner.Tune(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.ReadFrame(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitForSubs(t, srv, 0, 1)
	if err := tuner.Detach(); err != nil {
		t.Fatal(err)
	}
	waitForSubs(t, srv, 0, 0)
	// Drain in-flight frames; after the server saw UNS, silence.
	for {
		if _, err := tuner.ReadFrame(50 * time.Millisecond); err != nil {
			break
		}
	}
}

func TestRetuneAcrossChannels(t *testing.T) {
	prog := testProgram(t)
	srv := startServer(t, prog, time.Millisecond)
	a0, _ := srv.udp.ChannelAddr(0)
	a1, _ := srv.udp.ChannelAddr(1)

	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()

	if err := tuner.Tune(a0); err != nil {
		t.Fatal(err)
	}
	f, err := tuner.ReadFrame(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Channel != 0 {
		t.Fatalf("frame from channel %d, want 0", f.Channel)
	}

	if err := tuner.Tune(a1); err != nil {
		t.Fatal(err)
	}
	// Frames already in flight from channel 0 are filtered by source
	// address; the next accepted frame must be channel 1.
	f, err = tuner.ReadFrame(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Channel != 1 {
		t.Fatalf("frame from channel %d after retune, want 1", f.Channel)
	}
}

// TestWaitForPageWithinExpectedTime: on a valid SUSC program, a tuner
// camping on a page's channel sees it within t_i frames (the paper's
// guarantee, measured over real sockets).
func TestWaitForPageWithinExpectedTime(t *testing.T) {
	prog := testProgram(t)
	srv := startServer(t, prog, time.Millisecond)
	gs := prog.GroupSet()

	// Find page 0's channel (SUSC keeps a page on one channel).
	cols := prog.Appearances(0)
	channel := -1
	for ch := 0; ch < prog.Channels(); ch++ {
		if prog.At(ch, cols[0]) == 0 {
			channel = ch
			break
		}
	}
	addr, _ := srv.udp.ChannelAddr(channel)

	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	if err := tuner.Tune(addr); err != nil {
		t.Fatal(err)
	}
	frames, err := tuner.WaitForPage(0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 has t=2: it recurs every 2 slots on its channel, so even with
	// a worst-case phase the tuner sees it within 2 frames (plus slack for
	// a rare loopback drop).
	if frames > gs.TimeOf(0)+2 {
		t.Errorf("saw %d frames before page 0, expected <= t_i=%d (+slack)", frames, gs.TimeOf(0))
	}
}

func TestTunerValidation(t *testing.T) {
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	if err := tuner.Tune(nil); err == nil {
		t.Error("nil address accepted")
	}
	if err := tuner.Detach(); err != nil {
		t.Errorf("detached Detach errored: %v", err)
	}
	if tuner.LocalAddr() == nil {
		t.Error("no local address")
	}
}

// TestTunerReadFrameZeroAllocs pins that ReadFrame allocates nothing
// per datagram: the tuned channel's address is kept as a netip.AddrPort
// at Tune, and each source is compared as one. The tuner is tuned to the
// IPv4-in-IPv6 form of the channel's address, the form a schedule
// decodes, so the comparison must unmap both sides to hear the channel
// at all.
func TestTunerReadFrameZeroAllocs(t *testing.T) {
	channel := listenLoopback(t)
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer tuner.Close()
	addr := channel.LocalAddr().(*net.UDPAddr)
	if err := tuner.Tune(&net.UDPAddr{IP: addr.IP.To16(), Port: addr.Port}); err != nil {
		t.Fatal(err)
	}
	const reads = 100
	want := Frame{Channel: 1, Slot: 2, Page: 3}
	frame := appendFrame(nil, want)
	for i := 0; i <= reads; i++ { // AllocsPerRun reads once more to warm up
		if _, err := channel.WriteToUDP(frame, tuner.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(reads, func() {
		if f, err := tuner.ReadFrame(5 * time.Second); err != nil || f != want {
			t.Fatalf("ReadFrame = %+v, %v, want %+v", f, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFrame allocates %v per datagram, want 0", allocs)
	}
}

func TestServerStopIdempotent(t *testing.T) {
	srv, err := NewServer(testProgram(t), ServerConfig{SlotDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Run(context.Background()) }()
	srv.Stop()
	srv.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run = %v, want nil on Stop", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
}

func TestRunHonoursContext(t *testing.T) {
	srv, err := NewServer(testProgram(t), ServerConfig{SlotDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on cancellation")
	}
}

func TestMultipleSubscribersSameChannel(t *testing.T) {
	srv := startServer(t, testProgram(t), time.Millisecond)
	addr, _ := srv.udp.ChannelAddr(1)
	const clients = 3
	tuners := make([]*Tuner, clients)
	for i := range tuners {
		tuner, err := NewTuner()
		if err != nil {
			t.Fatal(err)
		}
		defer tuner.Close()
		if err := tuner.Tune(addr); err != nil {
			t.Fatal(err)
		}
		tuners[i] = tuner
	}
	waitForSubs(t, srv, 1, clients)
	for i, tuner := range tuners {
		if _, err := tuner.ReadFrame(2 * time.Second); err != nil {
			t.Errorf("subscriber %d starved: %v", i, err)
		}
	}
}

// TestSubscribeDuringTransmission churns subscriptions on both channels
// while the server ticks as fast as it can, exercising the copy-on-write
// snapshot swap against concurrent transmits (the -race gate for this
// package). Frames must still flow to a subscriber that stays attached.
func TestSubscribeDuringTransmission(t *testing.T) {
	srv := startServer(t, testProgram(t), 100*time.Microsecond)
	a0, _ := srv.udp.ChannelAddr(0)
	a1, _ := srv.udp.ChannelAddr(1)

	stable, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	if err := stable.Tune(a0); err != nil {
		t.Fatal(err)
	}
	if _, err := stable.ReadFrame(2 * time.Second); err != nil {
		t.Fatalf("no frames before churn: %v", err)
	}

	const churners = 4
	done := make(chan error, churners)
	for i := 0; i < churners; i++ {
		addr := a0
		if i%2 == 1 {
			addr = a1
		}
		go func(addr *net.UDPAddr) {
			tuner, err := NewTuner()
			if err != nil {
				done <- err
				return
			}
			defer tuner.Close()
			for j := 0; j < 50; j++ {
				if err := tuner.Tune(addr); err != nil {
					done <- err
					return
				}
				if err := tuner.Detach(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(addr)
	}
	for i := 0; i < churners; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The stable subscriber survived the churn and still receives frames.
	for {
		if _, err := stable.ReadFrame(2 * time.Second); err != nil {
			t.Fatalf("stable subscriber starved after churn: %v", err)
		}
		if srv.udp.Subscribers(0) == 1 && srv.udp.Subscribers(1) == 0 {
			break
		}
	}
}

// waitForSubs polls until channel ch has want subscribers (control
// datagrams are asynchronous).
func waitForSubs(t *testing.T, srv *Server, ch, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.udp.Subscribers(ch) != want {
		if time.Now().After(deadline) {
			t.Fatalf("channel %d has %d subscribers, want %d", ch, srv.udp.Subscribers(ch), want)
		}
		time.Sleep(time.Millisecond)
	}
}
