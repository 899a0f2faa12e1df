package loadgen

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// TestRunStreamCalendarEdges pins the calendar's edges against the chaos
// engine, at one and three workers with an eight-slot ring: retries that
// land exactly L ahead until MaxCycles gives up, a MaxCycles 1 run whose
// wrapped arrivals are unserved before their first opportunity, first
// opportunities in the window's last slot, and buckets that span chunk
// boundaries: every client shares one first opportunity, a lost airing
// retries whole buckets of chunks, and churn retries a share of one.
func TestRunStreamCalendarEdges(t *testing.T) {
	a := edgeProgram(t)
	count := 2*workload.ShardSize + 501
	shared := make([]workload.Request, count)
	for i := range shared {
		shared[i] = workload.Request{Page: 1, Arrival: 0.5}
	}
	cases := []struct {
		name   string
		stream workload.Stream
		fault  chaos.Config
		expect func(chaos.Ledger) bool
	}{
		{
			name:   "once-per-cycle-heavy-loss",
			stream: edgeStream(count, 1, 2),
			fault:  chaos.Config{Seed: 11, Loss: 0.9, MaxCycles: 4},
			expect: func(l chaos.Ledger) bool { return l.Unserved > 0 && l.Unserved < int64(count) },
		},
		{
			name:   "max-cycles-1-wrapped-arrival",
			stream: edgeStream(count, 0, 1, 2),
			fault:  chaos.Config{Seed: 6, Loss: 0.1, MaxCycles: 1},
			expect: func(l chaos.Ledger) bool { return l.Unserved > 0 },
		},
		{
			name:   "first-opportunity-last-window-slot",
			stream: edgeStream(count, 2),
			expect: func(l chaos.Ledger) bool { return l == chaos.Ledger{} },
		},
		{
			name:   "shared-first-opportunity-across-chunks",
			stream: workload.SliceStream(shared),
			fault:  chaos.Config{Seed: 2, Loss: 0.3, Churn: 0.3, MaxCycles: 4},
			expect: func(l chaos.Ledger) bool {
				return l.LostDeliveries >= int64(count) && l.ChurnSkips > 2*chunkLen && l.Unserved > 0 && l.Unserved < int64(count)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := chaos.RunParallel(a, tc.stream, tc.fault, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.expect(want.Ledger) {
				t.Fatalf("case does not reach its edge: ledger %+v", want.Ledger)
			}
			for _, workers := range []int{1, 3} {
				res, err := RunStream(context.Background(), a, tc.stream, tc.fault, Options{Workers: workers, RingSlots: 8})
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

// TestClientRecordSize pins the calendar's memory: a client record is
// 48 bytes, so a million clients take 48 MiB, and a chunk is its records
// plus an 8-byte header.
func TestClientRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(client{}); size != 48 {
		t.Errorf("client record is %d bytes, want 48", size)
	}
	if size, want := unsafe.Sizeof(chunk{}), 8+chunkLen*unsafe.Sizeof(client{}); size != want {
		t.Errorf("calendar chunk is %d bytes, want %d", size, want)
	}
}

// hugeStream claims more requests than one worker's calendar can address
// with int32 chunk indices; RunStream must refuse it before it allocates
// or reads a request.
type hugeStream struct{ workload.Stream }

const hugeCount = (math.MaxInt32 + 1) * chunkLen

func (hugeStream) Count() int  { return hugeCount }
func (hugeStream) Shards() int { return hugeCount / workload.ShardSize }

func TestRunStreamRejectsUnlinkableWorker(t *testing.T) {
	if math.MaxInt < math.MaxInt64 {
		t.Skip("int cannot count past the int32 chunk indices")
	}
	_, err := RunStream(context.Background(), edgeProgram(t), hugeStream{}, chaos.Config{}, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("err = %v, want an int32 chunk index overflow error", err)
	}
}

// TestArenaBound pins the arena's size at both of its bounds and the
// int32 refusal at its edge.
func TestArenaBound(t *testing.T) {
	const window = 8
	for _, tc := range []struct {
		owned int
		want  int32
		ok    bool
	}{
		{owned: 0, want: 1, ok: true},
		{owned: 5, want: 6, ok: true},                         // owned+1
		{owned: 10 * chunkLen, want: 10 + window, ok: true},   // ⌈owned/chunkLen⌉ + window
		{owned: 10*chunkLen + 1, want: 11 + window, ok: true}, // a partial chunk rounds up
		{owned: (math.MaxInt32 - window) * chunkLen, want: math.MaxInt32, ok: true},
		{owned: (math.MaxInt32-window)*chunkLen + 1, ok: false}, // one chunk past int32
	} {
		got, ok := arenaBound(tc.owned, window)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("arenaBound(%d, %d) = %d, %v; want %d, %v", tc.owned, window, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := arenaBound(1, math.MaxInt32+1); ok {
		t.Error("a window past int32 was accepted")
	}
}

// drainSlot takes slot s's bucket and hands each of its records to
// visit, as the worker's drain does, releasing every chunk after it; it
// reports how many chunks the bucket held.
func drainSlot(cal *calendar, s int64, visit func(*client)) (chunks int) {
	for k := cal.take(s); k >= 0; k = cal.release(k) {
		chunks++
		for j := int32(0); j < cal.chunks[k].n; j++ {
			visit(&cal.chunks[k].recs[j])
		}
	}
	return chunks
}

// TestCalendarDrainsInSlotOrder drives the calendar as a worker does:
// clients pushed at random wake slots of the first window, drained slot
// by slot, and each retried a random number of times at most half a
// window ahead. Every slot must drain exactly the multiset of clients
// queued for it, each record intact, and the arena must never grow past
// arenaBound.
func TestCalendarDrainsInSlotOrder(t *testing.T) {
	const L = 7
	window := int64(2 * L)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 5000} {
		bound, _ := arenaBound(n, window)
		cal := newCalendar(n, window)
		queued := map[int64][]int64{} // wake slot → globs queued for it
		retries := make([]int32, n)
		for g := int64(0); g < int64(n); g++ {
			retries[g] = int32(rng.Intn(4))
			c := client{glob: g, page: core.PageID(g % 97)}
			c.Next = rng.Int63n(window)
			cal.push(&c)
			queued[c.Next] = append(queued[c.Next], g)
		}
		pending := n
		for s := int64(0); pending > 0; s++ {
			var got []int64
			drainSlot(&cal, s, func(c *client) {
				got = append(got, c.glob)
				if c.Next != s || c.page != core.PageID(c.glob%97) {
					t.Fatalf("n %d slot %d: drained record %+v", n, s, *c)
				}
				if c.Attempts == retries[c.glob] {
					pending--
					return
				}
				c.Attempts++
				c.Next = s + 1 + rng.Int63n(L)
				cal.push(c)
				queued[c.Next] = append(queued[c.Next], c.glob)
			})
			want := queued[s]
			delete(queued, s)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("n %d slot %d: drained %v, want %v", n, s, got, want)
			}
		}
		if len(queued) != 0 {
			t.Errorf("n %d: slots %v still queued after the last client finished", n, queued)
		}
		if len(cal.chunks) > int(bound) || cap(cal.chunks) != int(bound) {
			t.Errorf("n %d: arena holds %d chunks of capacity %d, bound %d", n, len(cal.chunks), cap(cal.chunks), bound)
		}
	}
}

// TestCalendarChunkBoundary pins buckets of exactly chunkLen and
// chunkLen+1 records, one and two chunks, and retries that reuse the
// chunks their drain freed: after the first round of retries the arena
// stops growing.
func TestCalendarChunkBoundary(t *testing.T) {
	const window = 4
	bound, _ := arenaBound(2*chunkLen+1, window)
	cal := newCalendar(2*chunkLen+1, window)
	for g := int64(0); g < 2*chunkLen+1; g++ {
		c := client{glob: g}
		c.Next = min(g/chunkLen, 1) // chunkLen clients wake at slot 0, chunkLen+1 at slot 1
		cal.push(&c)
	}
	if len(cal.chunks) != 3 {
		t.Fatalf("%d chunks hold buckets of %d and %d records, want 3", len(cal.chunks), chunkLen, chunkLen+1)
	}
	for s := int64(0); s < 40; s++ {
		records := 0
		chunks := drainSlot(&cal, s, func(c *client) {
			records++
			c.Next += 2 // every client retries, two slots on
			cal.push(c)
		})
		if want := chunkLen + int(s%2); records != want || chunks != 1+int(s%2) {
			t.Fatalf("slot %d: %d records in %d chunks, want %d in %d", s, records, chunks, want, 1+s%2)
		}
		// Slot 0's retries take a fresh chunk, as the chunk being drained
		// is not free yet; every later retry reuses a freed one.
		if len(cal.chunks) != 4 {
			t.Fatalf("slot %d: arena grew to %d chunks, want 4", s, len(cal.chunks))
		}
	}
	if cap(cal.chunks) != int(bound) {
		t.Errorf("arena capacity %d, bound %d", cap(cal.chunks), bound)
	}
}

// TestRunStreamRetriesAllocateNothing pins that a retry costs no
// allocation: a retried client moves into a chunk of the arena sized
// before the drain, so a run at i.i.d. loss 0.5 allocates exactly as
// often as one at loss 0.05, with twenty times the retries.
func TestRunStreamRetriesAllocateNothing(t *testing.T) {
	a, stream, err := Materialize(Config{Clients: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(loss float64) float64 {
		fault := chaos.Config{Seed: 1, Loss: loss}
		var res *Result
		n := testing.AllocsPerRun(3, func() {
			if res, err = RunStream(context.Background(), a, stream, fault, Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("loss %v: %v allocs, %d retries", loss, n, res.Ledger.Retries)
		return n
	}
	if light, heavy := allocs(0.05), allocs(0.5); heavy != light {
		t.Errorf("loss 0.5 run makes %v allocations, loss 0.05 run %v", heavy, light)
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

// BenchmarkRunStreamLossy serves 2^19 clients of the same operating point
// under the all-class fault mix with one client worker, so the calendar's
// retry path carries a share of the drain.
func BenchmarkRunStreamLossy(b *testing.B) {
	a, stream, err := Materialize(Config{Clients: 1 << 19, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	fault := allFaults(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStream(context.Background(), a, stream, fault, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
