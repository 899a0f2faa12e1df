package netcast

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tcsa/internal/core"
)

// listenLoopback binds a throwaway loopback UDP socket.
func listenLoopback(t testing.TB) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// TestBatcherFanoutDelivers pins that the batched send path delivers the
// frame to every destination — including one listed twice, which must
// receive two copies — and reports the full send count.
func TestBatcherFanoutDelivers(t *testing.T) {
	sender := listenLoopback(t)
	listeners := make([]*net.UDPConn, 5)
	addrs := make([]*net.UDPAddr, 0, 6)
	for i := range listeners {
		listeners[i] = listenLoopback(t)
		addrs = append(addrs, listeners[i].LocalAddr().(*net.UDPAddr))
	}
	addrs = append(addrs, addrs[0]) // duplicate: two frames to listener 0

	frame := appendFrame(nil, Frame{Channel: 3, Slot: 7, Page: 42})
	b := NewBatcher(sender)
	ds := NewDestSet(addrs)
	if sent := b.Fanout(frame, ds); sent != len(addrs) {
		t.Fatalf("Fanout sent %d, want %d", sent, len(addrs))
	}

	buf := make([]byte, FrameSize+16)
	for i, l := range listeners {
		copies := 1
		if i == 0 {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			if err := l.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			n, _, err := l.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("listener %d copy %d: %v", i, c, err)
			}
			f, err := parseFrame(buf[:n])
			if err != nil {
				t.Fatalf("listener %d: %v", i, err)
			}
			if f.Page != 42 || f.Slot != 7 || f.Channel != 3 {
				t.Fatalf("listener %d got %+v", i, f)
			}
		}
	}
}

// countingFault drops the frames drop picks and counts every Drop
// consultation, so tests can pin which channels the engine asks about.
type countingFault struct {
	drop     func(ch, abs int) bool
	mu       sync.Mutex
	dropAsks map[int]int
}

func (f *countingFault) Stalled(int) bool { return false }
func (f *countingFault) Drop(ch, abs int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropAsks == nil {
		f.dropAsks = make(map[int]int)
	}
	f.dropAsks[ch]++
	return f.drop(ch, abs)
}
func (f *countingFault) Corrupt(int, int) bool { return false }

func (f *countingFault) asks(ch int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropAsks[ch]
}

// sendCaster builds a caster over a one-slot ring and returns it with a
// tick that casts slot abs and sends the row through tr, as Server's
// tick does.
func sendCaster(t testing.TB, prog *core.Program, tr Transport, fault FaultInjector) (*Caster, func(abs int)) {
	t.Helper()
	ring, caster := ringCaster(t, prog, 1, fault)
	return caster, func(abs int) {
		caster.CastSlot(abs)
		ring.Send(tr, abs)
	}
}

// TestUDPFaultsEveryChannel pins that faults belong to the air, not to
// its listeners: casting through the UDP transport consults the injector
// on every channel in every slot, whether or not anyone listens, and
// counts every drop; and a tuner on channel 0 hears exactly the frames
// the plan did not drop there, in slot order, and nothing more.
func TestUDPFaultsEveryChannel(t *testing.T) {
	prog := testProgram(t)
	fault := &countingFault{drop: func(ch, abs int) bool { return (ch+abs)%3 == 0 }}
	tr, err := NewUDPTransport(prog.Channels(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	tuner, err := NewTuner()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tuner.Close() })
	addr, err := tr.ChannelAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Tune(addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Subscribers(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not registered")
		}
		time.Sleep(time.Millisecond)
	}

	caster, tick := sendCaster(t, prog, tr, fault)
	const slots = 60
	drops := 0
	var heard []uint32
	for abs := 0; abs < slots; abs++ {
		tick(abs)
		for ch := 0; ch < prog.Channels(); ch++ {
			if fault.drop(ch, abs) {
				drops++
			} else if ch == 0 {
				heard = append(heard, uint32(abs))
			}
		}
	}
	for ch := 0; ch < prog.Channels(); ch++ {
		if asks := fault.asks(ch); asks != slots {
			t.Errorf("channel %d: fault injector consulted %d times, want %d", ch, asks, slots)
		}
	}
	if got := caster.Faults(); got != (FaultStats{DroppedFrames: int64(drops)}) {
		t.Errorf("Faults() = %+v, want %d dropped frames", got, drops)
	}
	for _, want := range heard {
		f, err := tuner.ReadFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("waiting for slot %d: %v", want, err)
		}
		if f != (Frame{Channel: 0, Slot: want, Page: prog.At(0, prog.Column(int(want)))}) {
			t.Fatalf("read %+v, want slot %d's frame on channel 0", f, want)
		}
	}
	if f, err := tuner.ReadFrame(50 * time.Millisecond); err == nil {
		t.Errorf("read %+v after every undropped frame", f)
	}
}

// TestCorruptFlipLandsInPayload pins the named corruption constant to the
// frame layout: the flipped byte sits inside the page field — corrupted
// payload, intact framing — and the receiver rejects the frame by
// checksum.
func TestCorruptFlipLandsInPayload(t *testing.T) {
	if corruptFlipOffset < framePageOff || corruptFlipOffset >= framePageOff+4 {
		t.Fatalf("corruptFlipOffset %d outside the page field [%d, %d)",
			corruptFlipOffset, framePageOff, framePageOff+4)
	}

	b := appendFrame(nil, Frame{Channel: 1, Slot: 9, Page: 0x0102})
	b[corruptFlipOffset] ^= corruptFlipMask
	if _, err := parseFrame(b); err == nil {
		t.Error("checksum accepted a corrupted payload byte")
	}
}

// TestUDPChurnStorm races rapid subscribe/unsubscribe traffic against a
// full-rate caster driving the transport; under -race this is the proof
// the COW snapshots, mailboxes and control readers never share state
// unsafely. Tuner-visible behavior (decodable frames on the tuned
// channel) is spot-checked alongside.
func TestUDPChurnStorm(t *testing.T) {
	prog := testProgram(t)
	tr, err := NewUDPTransport(prog.Channels(), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	_, tick := sendCaster(t, prog, tr, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tuner, err := NewTuner()
			if err != nil {
				t.Error(err)
				return
			}
			defer tuner.Close()
			for i := 0; ctx.Err() == nil; i++ {
				addr, err := tr.ChannelAddr((w + i) % prog.Channels())
				if err != nil {
					t.Error(err)
					return
				}
				if err := tuner.Tune(addr); err != nil {
					return // socket shut down under us: storm is over
				}
				_, _ = tuner.ReadFrame(5 * time.Millisecond)
				if err := tuner.Detach(); err != nil {
					return
				}
			}
		}(w)
	}
	for abs := 0; abs < 3000; abs++ {
		tick(abs)
		if abs%100 == 0 {
			time.Sleep(time.Millisecond) // let control traffic interleave
		}
	}
	cancel()
	wg.Wait()
}

// benchDestSet builds n distinct loopback destinations backed by a
// handful of real sockets (so sends land somewhere) — the send cost per
// destination is identical either way, which is what the fan-out
// benchmark measures.
func benchDestSet(tb testing.TB, n int) *DestSet {
	tb.Helper()
	sinks := make([]*net.UDPAddr, 8)
	for i := range sinks {
		sinks[i] = listenLoopback(tb).LocalAddr().(*net.UDPAddr)
	}
	addrs := make([]*net.UDPAddr, n)
	for i := range addrs {
		addrs[i] = sinks[i%len(sinks)]
	}
	return NewDestSet(addrs)
}

// BenchmarkFanoutUDP measures the UDP engine at 10k subscribers on two
// axes.
//
// wire/*: one full fan-out to every destination — batched sendmmsg
// against the serial per-subscriber WriteToUDP loop. On a single-core
// host the kernel's per-datagram delivery dominates both, so this ratio
// is modest; on multi-core hosts the per-channel workers multiply it.
//
// slotpath/*: the work the slot clock is blocked on per slot — the
// pre-Transport server fanned out serially on the tick goroutine
// (O(subscribers) syscalls before the next slot could air); the server
// casts the slot into its one-slot ring and sends the row, handing each
// listened channel's frame to its worker in O(1). This is the ratio the
// golden test's floor holds: it is what lets the slot clock keep airing
// at rate regardless of subscriber count.
func BenchmarkFanoutUDP(b *testing.B) {
	const subs = 10_000
	frame := appendFrame(nil, Frame{Channel: 0, Slot: 1, Page: 2})
	b.Run("wire/batched", func(b *testing.B) {
		batcher := NewBatcher(listenLoopback(b))
		ds := benchDestSet(b, subs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sent := batcher.Fanout(frame, ds); sent == 0 {
				b.Fatal("no frames sent")
			}
		}
		b.ReportMetric(float64(subs)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
	b.Run("wire/serial", func(b *testing.B) {
		batcher := NewBatcher(listenLoopback(b))
		ds := benchDestSet(b, subs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sent := batcher.serialFanout(frame, ds, 0); sent == 0 {
				b.Fatal("no frames sent")
			}
		}
		b.ReportMetric(float64(subs)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
	b.Run("slotpath/sharded", func(b *testing.B) {
		gs := core.MustGroupSet([]core.Group{{Time: 2, Count: 2}, {Time: 4, Count: 3}})
		prog := mustProgram(b, gs)
		tr, err := NewUDPTransport(prog.Channels(), "")
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		ds := benchDestSet(b, subs)
		if err := tr.Provision(0, ds.addrs); err != nil {
			b.Fatal(err)
		}
		_, tick := sendCaster(b, prog, tr, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick(i)
		}
		b.StopTimer()
		b.ReportMetric(float64(tr.Overruns())/float64(b.N), "overruns/op")
	})
	b.Run("slotpath/serial", func(b *testing.B) {
		batcher := NewBatcher(listenLoopback(b))
		ds := benchDestSet(b, subs)
		scratch := make([]byte, 0, FrameSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-Transport transmit(): encode, then send to every
			// subscriber before the tick goroutine can move on.
			scratch = appendFrame(scratch[:0], Frame{Channel: 0, Slot: uint32(i), Page: 2})
			batcher.serialFanout(scratch, ds, 0)
		}
	})
}
