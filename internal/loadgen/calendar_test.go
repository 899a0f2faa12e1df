package loadgen

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// edgeProgram is a one-channel, four-slot program (L = 4): page 0
// (t = 2) airs in columns 0 and 2, page 1 (t = 4) only in column 1 and
// page 2 (t = 4) only in column 3, the last column of the cycle. Pages 1
// and 2 air once per cycle, so every retry lands exactly L ahead, and a
// page-2 client arriving at an offset in (3, 4) has its first opportunity
// at slot 2L-1, the last slot of the calendar's window.
func edgeProgram(t testing.TB) *core.Analysis {
	t.Helper()
	gs, err := core.Geometric(2, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(gs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		slot int
		page core.PageID
	}{{0, 0}, {1, 1}, {2, 0}, {3, 2}} {
		if err := prog.Place(0, cell.slot, cell.page); err != nil {
			t.Fatal(err)
		}
	}
	return core.Analyze(prog)
}

// edgeStream is count requests over the given pages, with arrivals
// stepping by 0.37 slots so every arrival offset within the cycle —
// including those past a page's only column — recurs across all three
// shards.
func edgeStream(count int, pages ...core.PageID) workload.Stream {
	reqs := make([]workload.Request, count)
	for i := range reqs {
		reqs[i] = workload.Request{Page: pages[i%len(pages)], Arrival: float64(i%1009) * 0.37}
	}
	return workload.SliceStream(reqs)
}

// TestRunStreamCalendarEdges pins the calendar's window edges against the
// chaos engine, at one and three workers with an eight-slot ring: retries
// that land exactly L ahead until MaxCycles gives up, a MaxCycles 1 run
// whose wrapped arrivals are unserved before their first opportunity, and
// first opportunities in the window's last slot.
func TestRunStreamCalendarEdges(t *testing.T) {
	a := edgeProgram(t)
	count := 2*workload.ShardSize + 501
	cases := []struct {
		name   string
		pages  []core.PageID
		fault  chaos.Config
		expect func(chaos.Ledger) bool
	}{
		{
			name:   "once-per-cycle-heavy-loss",
			pages:  []core.PageID{1, 2},
			fault:  chaos.Config{Seed: 11, Loss: 0.9, MaxCycles: 4},
			expect: func(l chaos.Ledger) bool { return l.Unserved > 0 && l.Unserved < int64(count) },
		},
		{
			name:   "max-cycles-1-wrapped-arrival",
			pages:  []core.PageID{0, 1, 2},
			fault:  chaos.Config{Seed: 6, Loss: 0.1, MaxCycles: 1},
			expect: func(l chaos.Ledger) bool { return l.Unserved > 0 },
		},
		{
			name:   "first-opportunity-last-window-slot",
			pages:  []core.PageID{2},
			expect: func(l chaos.Ledger) bool { return l == chaos.Ledger{} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := edgeStream(count, tc.pages...)
			want, err := chaos.RunParallel(a, stream, tc.fault, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.expect(want.Ledger) {
				t.Fatalf("case does not reach its edge: ledger %+v", want.Ledger)
			}
			for _, workers := range []int{1, 3} {
				res, err := RunStream(context.Background(), a, stream, tc.fault, Options{Workers: workers, RingSlots: 8})
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				if !reflect.DeepEqual(&res.Result, want) {
					t.Errorf("workers %d: result diverges from chaos engine:\n ring: %+v\nchaos: %+v", workers, res.Result, *want)
				}
			}
		})
	}
	// The window edge itself: an arrival at offset 3.5 first meets page 2
	// at column 3 of the next cycle, slot 7 = 2L-1, and waits 3.5 slots.
	res, err := RunStream(context.Background(), a, workload.SliceStream([]workload.Request{{Page: 2, Arrival: 3.5}}), chaos.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgWait != 3.5 {
		t.Errorf("last-window-slot client waited %v slots, want 3.5", res.AvgWait)
	}
}

// TestRunStreamCorruptionAlwaysCaught pins the frame-checksum fix end to
// end: under fault plan seed 10 of the canonical mix the former 16-bit FNV
// fold let a corrupted frame (channel 3, slot 466 of the paper program)
// through, and the client polling it aborted the run on a wrong page.
func TestRunStreamCorruptionAlwaysCaught(t *testing.T) {
	a, stream, err := Materialize(Config{Clients: 1 << 17, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fault := allFaults(10)
	res, err := RunStream(context.Background(), a, stream, fault, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := chaos.RunParallel(a, stream, fault, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&res.Result, want) {
		t.Errorf("result diverges from chaos engine:\n ring: %+v\nchaos: %+v", res.Result, *want)
	}
	if res.FaultStats.CorruptFrames == 0 {
		t.Error("plan corrupted no frames")
	}
}

// TestClientRecordSize pins that the calendar link lives in what was the
// record's padding: a million clients still take 48 MiB.
func TestClientRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(client{}); size != 48 {
		t.Errorf("client record is %d bytes, want 48", size)
	}
}

// hugeStream claims more requests than int32 calendar links can address;
// RunStream must refuse it before it allocates or reads a request.
type hugeStream struct{ workload.Stream }

func (hugeStream) Count() int  { return math.MaxInt32 + 1 }
func (hugeStream) Shards() int { return (math.MaxInt32 + 1) / workload.ShardSize }

func TestRunStreamRejectsUnlinkableWorker(t *testing.T) {
	if math.MaxInt < math.MaxInt64 {
		t.Skip("int cannot count past the int32 links")
	}
	_, err := RunStream(context.Background(), edgeProgram(t), hugeStream{}, chaos.Config{}, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("err = %v, want an int32 link overflow error", err)
	}
}

func TestOwnedClients(t *testing.T) {
	count := 5*workload.ShardSize + 123
	total := 0
	for w := 0; w < 3; w++ {
		total += ownedClients(count, w, 3)
	}
	if total != count {
		t.Errorf("workers own %d clients in all, want %d", total, count)
	}
	// Six shards, the last partial: worker 1 owns shards 1 and 4, worker
	// 2 shards 2 and 5.
	if got, want := ownedClients(count, 1, 3), 2*workload.ShardSize; got != want {
		t.Errorf("worker 1 owns %d clients, want %d", got, want)
	}
	if got, want := ownedClients(count, 2, 3), workload.ShardSize+123; got != want {
		t.Errorf("worker 2 owns %d clients, want %d", got, want)
	}
}

// FuzzLoadgenEquivalence drives a small random instance, fault plan, ring
// depth and worker count through the transport and requires the chaos
// engine's Result exactly.
func FuzzLoadgenEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint16(0), uint16(0), uint16(0), uint8(0), uint8(3), uint8(0), uint8(1))
	f.Add(int64(7), uint8(9), uint8(2), uint8(4), uint16(1<<14), uint16(900), uint16(3000), uint8(16), uint8(0), uint8(2), uint8(3))
	f.Add(int64(-3), uint8(1), uint8(1), uint8(1), uint16(0xf000), uint16(0), uint16(0), uint8(0), uint8(7), uint8(1), uint8(2))
	// Fault-free at MaxCycles 1: wrapped arrivals give up before their
	// first appearance in both engines.
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint16(0), uint16(0), uint16(0), uint8(0), uint8(3), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, c0, c1, c2 uint8, loss, corrupt, churn uint16, stallEvery, ringShift, maxCycles, workers uint8) {
		counts := []int{1 + int(c0)%12, 1 + int(c1)%12, 1 + int(c2)%12}
		gs, err := core.Geometric(2, 2, counts)
		if err != nil {
			t.Fatal(err)
		}
		channels := 1 + int(uint64(seed)%uint64(gs.MinChannels()))
		prog, _, err := pamad.Build(gs, channels)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
			Count: workload.ShardSize + 700, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		fault := chaos.Config{
			Seed:      seed,
			Loss:      float64(loss) / (1 << 16),
			Corrupt:   float64(corrupt) / (1 << 17), // < 0.5
			Churn:     float64(churn) / (1 << 17),
			Jitter:    float64(churn) / (1 << 18), // rides on the churn draw
			MaxCycles: int(maxCycles % 8),
		}
		if stallEvery > 1 {
			fault.StallEvery, fault.StallFor = int(stallEvery), 1+int(stallEvery)/4
		}
		a := core.Analyze(prog)
		want, err := chaos.RunParallel(a, stream, fault, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 1 + int(workers%3), RingSlots: 8 << (ringShift % 8)}
		res, err := RunStream(context.Background(), a, stream, fault, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(&res.Result, want) {
			t.Fatalf("%+v: result diverges from chaos engine:\n ring: %+v\nchaos: %+v", opts, res.Result, *want)
		}
	})
}

// BenchmarkRunStream serves the paper-scale operating point — the
// Figure 4 instance at its knee, 2^20 fault-free clients — with one
// client worker beside the broadcaster.
func BenchmarkRunStream(b *testing.B) {
	a, stream, err := Materialize(Config{Clients: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStream(context.Background(), a, stream, chaos.Config{}, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
