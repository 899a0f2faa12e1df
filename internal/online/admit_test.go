package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// TestAdmitOrder: admit lays an unsorted, multi-shard stream out
// bucket-major and in stream order inside each bucket, exactly as a stable
// sort of the stream by admission slot does. Half the arrivals are whole
// slots, whose bucket is the slot itself, and every bucket holds many
// requests, so the order inside a bucket is what is checked.
func TestAdmitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2*workload.ShardSize + 1234
	reqs := make([]workload.Request, n)
	for i := range reqs {
		a := float64(rng.Intn(300))
		if i%2 == 1 {
			a -= rng.Float64() // still admitted at slot ceil(a)
		}
		reqs[i] = workload.Request{Page: core.PageID(rng.Intn(50)), Arrival: max(a, 0)}
	}
	stream := workload.SliceStream(reqs)
	if stream.Sorted() || stream.Shards() != 3 {
		t.Fatalf("fixture: sorted %v, %d shards", stream.Sorted(), stream.Shards())
	}
	ad, err := admit(stream, 50)
	if err != nil {
		t.Fatal(err)
	}

	want := append([]workload.Request(nil), reqs...)
	sort.SliceStable(want, func(i, j int) bool { return bucketOf(want[i].Arrival) < bucketOf(want[j].Arrival) })
	if len(ad.page) != n || len(ad.arr) != n {
		t.Fatalf("admitted %d pages, %d arrivals, want %d", len(ad.page), len(ad.arr), n)
	}
	for i, r := range want {
		if ad.page[i] != int32(r.Page) || math.Float64bits(ad.arr[i]) != math.Float64bits(r.Arrival) {
			t.Fatalf("admitted[%d] = page %d arrival %v, stable sort has %+v", i, ad.page[i], ad.arr[i], r)
		}
	}
	if wantMax := bucketOf(want[n-1].Arrival); ad.max != wantMax || len(ad.start) != wantMax+2 {
		t.Fatalf("max %d with %d starts, want %d and %d", ad.max, len(ad.start), wantMax, wantMax+2)
	}
	for b := 0; b <= ad.max; b++ {
		lo, hi := sort.Search(n, func(i int) bool { return bucketOf(want[i].Arrival) >= b }),
			sort.Search(n, func(i int) bool { return bucketOf(want[i].Arrival) > b })
		if int(ad.start[b]) != lo || int(ad.start[b+1]) != hi {
			t.Fatalf("bucket %d spans [%d, %d), want [%d, %d)", b, ad.start[b], ad.start[b+1], lo, hi)
		}
	}
}

// TestAdmitReportsFirstInvalid: with several bad requests past the first
// shard, the error names the first of them by its stream index, whichever
// check it fails.
func TestAdmitReportsFirstInvalid(t *testing.T) {
	base := func() []workload.Request {
		reqs := make([]workload.Request, workload.ShardSize+100)
		for i := range reqs {
			reqs[i] = workload.Request{Page: core.PageID(i % 8), Arrival: float64(i % 97)}
		}
		return reqs
	}
	first := workload.ShardSize + 7
	for _, tc := range []struct {
		name string
		bad  workload.Request
		want error
	}{
		{"page", workload.Request{Page: 8, Arrival: 1}, core.ErrPageRange},
		{"NaN", workload.Request{Page: 1, Arrival: math.NaN()}, core.ErrSlotRange},
		{"negative", workload.Request{Page: 1, Arrival: -0.5}, core.ErrSlotRange},
		{"far", workload.Request{Page: 1, Arrival: 1e19}, core.ErrSlotRange},
	} {
		reqs := base()
		reqs[first] = tc.bad
		reqs[first+1] = workload.Request{Page: -1, Arrival: 1}
		reqs[first+2] = workload.Request{Page: 1, Arrival: math.Inf(1)}
		_, err := admit(workload.SliceStream(reqs), 8)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("request %d ", first)) {
			t.Errorf("%s: %v, want %v at request %d", tc.name, err, tc.want, first)
		}
	}
}

// TestRunRefusesFarArrivals: an arrival past the last admission slot is an
// ErrSlotRange error, returned before the bucket table grows toward it.
// Such arrivals used to panic (1e19, 1e300: the slot conversion wraps
// negative) or exhaust memory (5e9: a 20 GB table).
func TestRunRefusesFarArrivals(t *testing.T) {
	gs := mustGroupSet(t, workload.Uniform, 2, 8, 4, 2)
	prog, err := susc.BuildMinimal(gs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Split: Split{Mode: SplitReserved, OnlineChannels: 1}}
	for _, arr := range []float64{
		math.Nextafter(maxAdmitSlot, math.Inf(1)), maxAdmitSlot + 1, 5e9, 1e19, 1e300, math.MaxFloat64,
	} {
		stream := sliceStream([]core.PageID{0, 1}, []float64{3, arr})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(prog, stream, cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, core.ErrSlotRange) {
			t.Errorf("arrival %v: %v, want ErrSlotRange", arr, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("arrival %v: refusal allocated %d bytes", arr, b)
		}
	}
	// A far but admissible arrival is served, after the table grows.
	far := float64(1 << 20)
	res, err := Run(prog, sliceStream([]core.PageID{0, 1}, []float64{3, far}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 || res.HorizonSlots <= int(far) {
		t.Fatalf("far arrival: %d requests, horizon %d", res.Requests, res.HorizonSlots)
	}
}
