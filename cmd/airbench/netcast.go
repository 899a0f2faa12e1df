package main

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/experiments"
	"tcsa/internal/loadgen"
	"tcsa/internal/netcast"
	"tcsa/internal/perf"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// udpBenchSubs is the fan-out population the UDP samples measure: large
// enough that the serial per-subscriber loop visibly monopolises the
// slot clock, small enough to benchmark in CI.
const udpBenchSubs = 10_000

// runNetcast measures the fan-out engine on the paper's default instance.
// Three hard in-run assertions back its samples: the ring publish path
// allocates nothing per slot, the loadgen harness reproduces
// sim.MeasureStream bit-for-bit with faults off (and the chaos engine
// bit-for-bit with faults on), and the sharded slot path beats the
// pre-Transport serial transmit loop by at least 10x at 10k subscribers.
func runNetcast(rec *recorder) error {
	p := experiments.DefaultParams()
	prog, err := paperProgram(p)
	if err != nil {
		return err
	}
	analysis := core.Analyze(prog)

	// Ring publish path: one CastSlot through the seqlock ring. The
	// checksum fingerprints a full aired cycle as polled back out of the
	// ring, so content drift (not just cost drift) breaks the baseline.
	ringSlots := 1
	for ringSlots < prog.Length() {
		ringSlots <<= 1
	}
	ring, err := netcast.NewBroadcastRing(prog.Channels(), ringSlots)
	if err != nil {
		return err
	}
	caster, err := netcast.NewCaster(prog, ring, nil)
	if err != nil {
		return err
	}
	for abs := 0; abs < prog.Length(); abs++ {
		caster.CastSlot(abs)
	}
	cycle := make([]float64, 0, prog.Channels()*prog.Length())
	for ch := 0; ch < prog.Channels(); ch++ {
		for abs := int64(0); abs < int64(prog.Length()); abs++ {
			f, st := ring.Poll(ch, abs)
			if st != netcast.RingOK {
				return fmt.Errorf("ring poll (%d, %d) = %v, want RingOK", ch, abs, st)
			}
			cycle = append(cycle, float64(f.Page))
		}
	}
	abs := prog.Length()
	publish := rec.add("FanoutRingPublish", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			caster.CastSlot(abs)
			abs++
		}
	}), perf.SeriesChecksum(cycle))
	if publish.AllocsPerOp != 0 {
		return fmt.Errorf("ring publish allocates %d per slot, want 0", publish.AllocsPerOp)
	}
	fmt.Fprintf(rec.out, "ring publish is alloc-free per slot (%d channels, cycle %d)\n",
		prog.Channels(), prog.Length())

	// Loadgen through the ring: the full client harness at 2*ShardSize
	// simulated clients. Faults off must reproduce sim.MeasureStream
	// bit-for-bit; the canonical fault mix must reproduce the chaos
	// engine bit-for-bit.
	stream, err := workload.NewStream(prog.GroupSet(), prog.Length(), workload.RequestConfig{
		Count: 2 * workload.ShardSize,
		Seed:  p.Seed,
	})
	if err != nil {
		return err
	}
	measured, err := sim.MeasureStream(analysis, stream)
	if err != nil {
		return err
	}
	measureSum := perf.SeriesChecksum(metricsFloats(measured))

	zero, err := loadgen.RunStream(context.Background(), analysis, stream,
		chaos.Config{Seed: p.Seed}, loadgen.Options{})
	if err != nil {
		return err
	}
	zeroSum := perf.SeriesChecksum(metricsFloats(&zero.Metrics))
	if zeroSum != measureSum {
		return fmt.Errorf("zero-fault loadgen drifted from sim.MeasureStream: %s != %s",
			zeroSum, measureSum)
	}
	rec.add("LoadgenRingZeroFault", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loadgen.RunStream(context.Background(), analysis, stream,
				chaos.Config{Seed: p.Seed}, loadgen.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}), zeroSum)
	fmt.Fprintf(rec.out, "zero-fault identity holds: loadgen(%d clients) == MeasureStream (%s)\n",
		stream.Count(), zeroSum)

	want, err := chaos.RunParallel(analysis, stream, chaosFaultedConfig(p.Seed), 0)
	if err != nil {
		return err
	}
	faulted, err := loadgen.RunStream(context.Background(), analysis, stream,
		chaosFaultedConfig(p.Seed), loadgen.Options{})
	if err != nil {
		return err
	}
	faultedSum := perf.SeriesChecksum(chaosFloats(&faulted.Result))
	if wantSum := perf.SeriesChecksum(chaosFloats(want)); faultedSum != wantSum {
		return fmt.Errorf("faulted loadgen drifted from the chaos engine: %s != %s",
			faultedSum, wantSum)
	}
	rec.add("LoadgenRingFaulted", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loadgen.RunStream(context.Background(), analysis, stream,
				chaosFaultedConfig(p.Seed), loadgen.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}), faultedSum)
	fmt.Fprintf(rec.out, "faulted identity holds: loadgen == chaos engine, digest %016x\n",
		faulted.TraceDigest)

	// UDP fan-out at 10k subscribers, both axes. Slot path: what one slot
	// costs the tick goroutine — the sharded transport enqueues one job
	// per channel (O(1)); the pre-Transport server sent every datagram
	// serially before the clock could advance. Wire path: one full
	// fan-out to every destination — sendmmsg batches against the serial
	// WriteToUDP loop.
	sinks := make([]*net.UDPConn, 8)
	for i := range sinks {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return err
		}
		defer conn.Close()
		sinks[i] = conn
	}
	addrs := make([]*net.UDPAddr, udpBenchSubs)
	for i := range addrs {
		addrs[i] = sinks[i%len(sinks)].LocalAddr().(*net.UDPAddr)
	}

	tr, err := netcast.NewUDPTransport(prog.Channels(), "")
	if err != nil {
		return err
	}
	defer tr.Close()
	if err := tr.Provision(0, addrs); err != nil {
		return err
	}
	udpCaster, err := netcast.NewCaster(prog, tr, nil)
	if err != nil {
		return err
	}
	slotAbs := 0
	sharded := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			udpCaster.CastSlot(slotAbs)
			slotAbs++
		}
	})
	rec.add("UDPSlotSharded", sharded, perf.SeriesChecksum([]float64{udpBenchSubs}))

	sender, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer sender.Close()
	frame := make([]byte, netcast.FrameSize)
	serial := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The pre-Transport transmit loop: one sequential syscall per
			// subscriber on the slot clock's goroutine.
			for _, a := range addrs {
				if _, err := sender.WriteToUDP(frame, a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	rec.add("UDPSlotSerial", serial, perf.SeriesChecksum([]float64{udpBenchSubs}))

	slotSpeedup := serial.T.Seconds() / float64(serial.N) /
		(sharded.T.Seconds() / float64(sharded.N))
	fmt.Fprintf(rec.out, "slot-path speedup at %d subs: %.0fx (sharded %v vs serial %v per slot)\n",
		udpBenchSubs, slotSpeedup,
		sharded.T/time.Duration(max(1, sharded.N)),
		serial.T/time.Duration(max(1, serial.N)))
	if slotSpeedup < 10 {
		return fmt.Errorf("sharded slot path only %.1fx over the serial transmit loop, want >= 10x",
			slotSpeedup)
	}

	batcher := netcast.NewBatcher(sender)
	ds := netcast.NewDestSet(addrs)
	batched := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sent := batcher.Fanout(frame, ds); sent != ds.Len() {
				b.Fatalf("batched fan-out sent %d of %d", sent, ds.Len())
			}
		}
	})
	rec.add("UDPWireBatched", batched, perf.SeriesChecksum([]float64{udpBenchSubs}))
	wireSpeedup := serial.T.Seconds() / float64(serial.N) /
		(batched.T.Seconds() / float64(batched.N))
	fmt.Fprintf(rec.out, "wire speedup at %d subs: %.2fx (sendmmsg batches vs serial datagrams; "+
		"kernel delivery dominates on loopback)\n", udpBenchSubs, wireSpeedup)
	return nil
}
