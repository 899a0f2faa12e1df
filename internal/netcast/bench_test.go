package netcast

import (
	"fmt"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// BenchmarkFrameCodec measures the UDP frame encode+decode round trip.
func BenchmarkFrameCodec(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], Frame{Channel: i % 64, Slot: uint32(i), Page: core.PageID(i % 1000)})
		if _, err := parseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// lossyFaults is the benchmark's canonical all-class fault mix
// (bench/serve.go): every fault class active, plus the degradation replan.
var lossyFaults = chaos.Config{
	Seed:       1,
	Loss:       0.10,
	Corrupt:    0.02,
	Churn:      0.05,
	Jitter:     0.25,
	StallEvery: 64,
	StallFor:   4,
	Burst:      &chaos.BurstConfig{GoodToBad: 0.05, BadToGood: 0.25, LossBad: 0.8},
	Replan:     true,
}

// BenchmarkCastSlot measures the publish side of the ring: one CastSlot
// per iteration into a default-depth ring, at the paper instance (1000
// pages, 8 uniform groups) and its x10 and x100 catalogs, each on PAMAD's
// knee channel count (13, 125 and 1,246 channels), fault-free and under
// the lossy mix (the faulted cases). ns/frame is the cost of one
// (channel, slot) frame.
func BenchmarkCastSlot(b *testing.B) {
	for _, scale := range []int{1, 10, 100} {
		gs, err := workload.GroupSet(workload.Uniform, 8, 1000*scale, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
		if err != nil {
			b.Fatal(err)
		}
		plan, err := chaos.NewPlan(lossyFaults, prog.Channels(), prog.Length())
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("x%d/ch=%d", scale, prog.Channels())
		for _, c := range []struct {
			name  string
			fault FaultInjector
		}{{name, nil}, {name + "/faulted", plan}} {
			b.Run(c.name, func(b *testing.B) {
				_, caster := ringCaster(b, prog, 0, c.fault)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					caster.CastSlot(i)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(prog.Channels()), "ns/frame")
			})
		}
	}
}

// noFaults is a FaultInjector that injects nothing: a caster given it
// casts dense rows of intact frames, where a nil injector casts epoch
// rows.
type noFaults struct{}

func (noFaults) Stalled(abs int) bool     { return false }
func (noFaults) Drop(ch, abs int) bool    { return false }
func (noFaults) Corrupt(ch, abs int) bool { return false }

// BenchmarkRingPoll measures the subscriber side of the ring: one Poll
// per iteration of a (channel, slot) drawn from a fixed pseudo-random
// sequence over a full default-depth ring, as scattered clients poll it.
// It runs at the paper instance and its x100 catalog on their knee
// channel counts (13 and 1,246), over epoch rows (a fault-free cast: the
// page is read from the program) and over dense rows of the same frames
// (a cast under an injector that injects nothing: the cell word is read
// and its checksum checked).
func BenchmarkRingPoll(b *testing.B) {
	for _, scale := range []int{1, 100} {
		gs, err := workload.GroupSet(workload.Uniform, 8, 1000*scale, 4, 2)
		if err != nil {
			b.Fatal(err)
		}
		prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			kind  string
			fault FaultInjector
		}{{"epoch", nil}, {"dense", noFaults{}}} {
			b.Run(fmt.Sprintf("x%d/ch=%d/%s", scale, prog.Channels(), c.kind), func(b *testing.B) {
				ring, caster := ringCaster(b, prog, 0, c.fault)
				depth := ring.Slots()
				for abs := 0; abs < depth; abs++ {
					caster.CastSlot(abs)
				}
				const picks = 1 << 12
				chs := make([]int, picks)
				slots := make([]int64, picks)
				x := uint64(1)
				for i := range chs {
					x = x*6364136223846793005 + 1442695040888963407
					chs[i] = int(x>>33) % prog.Channels()
					slots[i] = int64(x>>17) % int64(depth)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i & (picks - 1)
					if _, st := ring.Poll(chs[j], slots[j]); st != RingOK {
						b.Fatalf("Poll(%d, %d) = %v, want RingOK", chs[j], slots[j], st)
					}
				}
			})
		}
	}
}
