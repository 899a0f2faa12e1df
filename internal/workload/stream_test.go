package workload

import (
	"math"
	"math/rand"
	"testing"

	"tcsa/internal/core"
)

func streamGS(t *testing.T) *core.GroupSet {
	t.Helper()
	return core.MustGroupSet([]core.Group{{Time: 2, Count: 3}, {Time: 4, Count: 5}, {Time: 8, Count: 3}})
}

// collect materialises a stream through one cursor, shard by shard.
func collect(t *testing.T, s Stream) []Request {
	t.Helper()
	out := make([]Request, 0, s.Count())
	cur := s.NewCursor()
	var r Request
	for k := 0; k < s.Shards(); k++ {
		cur.Seek(k)
		for cur.Next(&r) {
			out = append(out, r)
		}
	}
	if len(out) != s.Count() {
		t.Fatalf("stream yielded %d of %d requests", len(out), s.Count())
	}
	return out
}

func requireSameRequests(t *testing.T, label string, got, want []Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Page != want[i].Page ||
			math.Float64bits(got[i].Arrival) != math.Float64bits(want[i].Arrival) {
			t.Fatalf("%s: request %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// drawRequests is the one-source uniform-arrival generator, drawn
// literally: page then arrival per request from one math/rand source
// seeded once. It is the oracle for the stream's draw order; cfg must be
// valid.
func drawRequests(gs *core.GroupSet, cycleLen int, cfg RequestConfig) []Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := gs.Pages()
	pick := func() core.PageID { return core.PageID(rng.Intn(n)) }
	if cfg.Choice == ZipfPages {
		theta := cfg.Theta
		if theta == 0 {
			theta = 0.8
		}
		cdf := zipfCDF(n, theta)
		pick = func() core.PageID { return core.PageID(searchCDF(cdf, rng.Float64())) }
	}
	reqs := make([]Request, cfg.Count)
	for i := range reqs {
		reqs[i] = Request{
			Page:    pick(),
			Arrival: rng.Float64() * float64(cycleLen),
		}
	}
	return reqs
}

// drawPoissonRequests is the one-source Poisson generator, drawn
// literally: exponential gap then page per request. It is the oracle for
// the Poisson stream's draw order; cfg must be valid.
func drawPoissonRequests(gs *core.GroupSet, cfg PoissonConfig) []Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := gs.Pages()
	var cdf []float64
	if cfg.Choice == ZipfPages {
		theta := cfg.Theta
		if theta == 0 {
			theta = 0.8
		}
		cdf = zipfCDF(n, theta)
	}
	reqs := make([]Request, cfg.Count)
	now := 0.0
	for i := range reqs {
		now += rng.ExpFloat64() / cfg.Rate
		page := core.PageID(0)
		if cdf != nil {
			page = core.PageID(searchCDF(cdf, rng.Float64()))
		} else {
			page = core.PageID(rng.Intn(n))
		}
		reqs[i] = Request{Page: page, Arrival: now}
	}
	return reqs
}

// TestStreamMatchesGenerateRequests: for counts within one shard, NewStream
// and GenerateRequests replay the one-source generator draw for draw
// (uniform and Zipf), which is what keeps experiment checksums frozen.
func TestStreamMatchesGenerateRequests(t *testing.T) {
	gs := streamGS(t)
	cfgs := []RequestConfig{
		{Count: 3000, Seed: 5},
		{Count: ShardSize, Seed: 6},
		{Count: 1, Seed: 7},
		{Count: 0, Seed: 8},
		{Count: 2500, Seed: 9, Choice: ZipfPages, Theta: 0.8},
		{Count: 2500, Seed: 10, Choice: ZipfPages}, // theta defaulting
	}
	for _, cfg := range cfgs {
		want := drawRequests(gs, 44, cfg)
		stream, err := NewStream(gs, 44, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stream.Sorted() {
			t.Errorf("cfg %+v: uniform arrivals reported sorted", cfg)
		}
		requireSameRequests(t, "stream", collect(t, stream), want)
		got, err := GenerateRequests(gs, 44, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRequests(t, "generate", got, want)
	}
}

// TestStreamShardZeroIsGeneratePrefix: for multi-shard streams, shard 0 is
// the exact ShardSize-long prefix the one-source generator produces with
// the same seed, and later shards decorrelate but stay deterministic.
func TestStreamShardZeroIsGeneratePrefix(t *testing.T) {
	gs := streamGS(t)
	cfg := RequestConfig{Count: ShardSize + 5000, Seed: 42}
	stream, err := NewStream(gs, 44, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", stream.Shards())
	}
	all := collect(t, stream)
	prefixCfg := cfg
	prefixCfg.Count = ShardSize
	requireSameRequests(t, "shard 0", all[:ShardSize], drawRequests(gs, 44, prefixCfg))

	// Re-seeking any shard on a fresh cursor replays it identically.
	cur := stream.NewCursor()
	cur.Seek(1)
	var r Request
	for i := ShardSize; cur.Next(&r); i++ {
		if r != all[i] {
			t.Fatalf("re-seeked request %d = %+v, want %+v", i, r, all[i])
		}
	}

	// Shard 1 must not replay shard 0's draws (seed decorrelation).
	same := 0
	for i := 0; i < 5000; i++ {
		if all[i] == all[ShardSize+i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of 5000 shard-1 requests duplicate shard 0", same)
	}
}

// TestPoissonStreamMatchesGenerate: a single-shard Poisson stream replays
// the one-source Poisson generator; multi-shard streams restart each
// shard's clock at its expected offset and stay sorted within every shard.
func TestPoissonStreamMatchesGenerate(t *testing.T) {
	gs := streamGS(t)
	cfg := PoissonConfig{RequestConfig: RequestConfig{Count: 4000, Seed: 14}, Rate: 0.5}
	want := drawPoissonRequests(gs, cfg)
	stream, err := NewPoissonStream(gs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Sorted() {
		t.Error("poisson stream not marked sorted")
	}
	requireSameRequests(t, "poisson", collect(t, stream), want)

	big := PoissonConfig{RequestConfig: RequestConfig{Count: 2*ShardSize + 100, Seed: 15}, Rate: 2}
	bs, err := NewPoissonStream(gs, big)
	if err != nil {
		t.Fatal(err)
	}
	all := collect(t, bs)
	for k := 0; k < bs.Shards(); k++ {
		start := k * ShardSize
		end := start + ShardSize
		if end > len(all) {
			end = len(all)
		}
		for i := start + 1; i < end; i++ {
			if all[i].Arrival < all[i-1].Arrival {
				t.Fatalf("shard %d not sorted at %d: %f < %f", k, i, all[i].Arrival, all[i-1].Arrival)
			}
		}
		// The shard clock starts at the expected offset, so arrival times
		// track the configured rate across shards.
		if want := float64(start) / big.Rate; all[start].Arrival < want {
			t.Errorf("shard %d first arrival %f before expected offset %f", k, all[start].Arrival, want)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	gs := streamGS(t)
	if _, err := NewStream(nil, 44, RequestConfig{Count: 1}); err == nil {
		t.Error("nil group set accepted")
	}
	if _, err := NewStream(gs, 44, RequestConfig{Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewStream(gs, 0, RequestConfig{Count: 1}); err == nil {
		t.Error("zero cycle accepted")
	}
	if _, err := NewStream(gs, 44, RequestConfig{Count: 1, Choice: ZipfPages, Theta: 2}); err == nil {
		t.Error("zipf theta 2 accepted")
	}
	if _, err := NewStream(gs, 44, RequestConfig{Count: 1, Choice: PageChoice(9)}); err == nil {
		t.Error("unknown page choice accepted")
	}
	if _, err := NewPoissonStream(nil, PoissonConfig{RequestConfig: RequestConfig{Count: 1}, Rate: 1}); err == nil {
		t.Error("nil group set accepted (poisson)")
	}
	if _, err := NewPoissonStream(gs, PoissonConfig{RequestConfig: RequestConfig{Count: -1}, Rate: 1}); err == nil {
		t.Error("negative count accepted (poisson)")
	}
	if _, err := NewPoissonStream(gs, PoissonConfig{RequestConfig: RequestConfig{Count: 1}}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestSliceStream(t *testing.T) {
	sorted := []Request{{Page: 0, Arrival: 1}, {Page: 1, Arrival: 1}, {Page: 2, Arrival: 3}}
	if s := SliceStream(sorted); !s.Sorted() {
		t.Error("non-decreasing slice not detected as sorted")
	}
	unsorted := []Request{{Page: 0, Arrival: 2}, {Page: 1, Arrival: 1}}
	if s := SliceStream(unsorted); s.Sorted() {
		t.Error("descending slice reported sorted")
	}
	empty := SliceStream(nil)
	if empty.Count() != 0 || empty.Shards() != 0 || !empty.Sorted() {
		t.Errorf("empty slice stream: count=%d shards=%d sorted=%v", empty.Count(), empty.Shards(), empty.Sorted())
	}
	requireSameRequests(t, "slice", collect(t, SliceStream(sorted)), sorted)

	// Seek past the end is a no-op cursor.
	cur := SliceStream(sorted).NewCursor()
	cur.Seek(5)
	var r Request
	if cur.Next(&r) {
		t.Error("cursor past the end yielded a request")
	}
}

func TestShardSeed(t *testing.T) {
	if shardSeed(123, 0) != 123 {
		t.Error("shard 0 must use the stream seed verbatim")
	}
	seen := map[int64]int{}
	for k := 0; k < 1000; k++ {
		seen[shardSeed(1, k)]++
	}
	if len(seen) != 1000 {
		t.Errorf("%d distinct seeds over 1000 shards", len(seen))
	}
	if shardSeed(1, 5) == shardSeed(2, 5) {
		t.Error("different stream seeds collide on the same shard")
	}
}

// TestPoissonZipfPages: Poisson generation honours the Zipf page-choice
// model — the generator and the stream agree draw for draw, the skew
// actually lands on low page IDs, and the uniform path's draw sequence is
// untouched (gap first, then page, same bits as before Zipf support).
func TestPoissonZipfPages(t *testing.T) {
	gs := streamGS(t)
	zipf := PoissonConfig{
		RequestConfig: RequestConfig{Count: 4000, Seed: 31, Choice: ZipfPages, Theta: 0.9},
		Rate:          2,
	}
	want := drawPoissonRequests(gs, zipf)
	stream, err := NewPoissonStream(gs, zipf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRequests(t, "poisson-zipf", collect(t, stream), want)

	// The skew is real: page 0 must dominate the top page by a wide margin
	// (uniform would give both ~1/11 of the stream).
	counts := make([]int, gs.Pages())
	for _, r := range want {
		counts[r.Page]++
	}
	if counts[0] < 2*counts[gs.Pages()-1] {
		t.Errorf("zipf skew missing: page 0 drew %d, page %d drew %d",
			counts[0], gs.Pages()-1, counts[gs.Pages()-1])
	}

	// Uniform Poisson arrivals are bit-identical whether or not the Choice
	// field exists: same gaps, same pages.
	uni := PoissonConfig{RequestConfig: RequestConfig{Count: 1000, Seed: 31}, Rate: 2}
	a, err := GeneratePoissonRequests(gs, uni)
	if err != nil {
		t.Fatal(err)
	}
	uni.Choice = UniformPages // explicit zero value: must not change draws
	b, err := GeneratePoissonRequests(gs, uni)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRequests(t, "uniform-poisson", b, a)

	// Zipf and uniform share the arrival clock draw order, so their
	// arrival instants coincide bit for bit — only pages differ.
	zc := uni
	zc.Choice, zc.Theta = ZipfPages, 0.9
	z, err := GeneratePoissonRequests(gs, zc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Float64bits(z[i].Arrival) != math.Float64bits(a[i].Arrival) {
			t.Fatalf("arrival %d drifted under zipf: %v vs %v", i, z[i].Arrival, a[i].Arrival)
		}
	}

	// Invalid configurations are rejected by both construction paths.
	bad := PoissonConfig{RequestConfig: RequestConfig{Count: 1, Choice: ZipfPages, Theta: 2}, Rate: 1}
	if _, err := GeneratePoissonRequests(gs, bad); err == nil {
		t.Error("theta 2 accepted by generator")
	}
	if _, err := NewPoissonStream(gs, bad); err == nil {
		t.Error("theta 2 accepted by stream")
	}
	bad.Choice = PageChoice(9)
	if _, err := NewPoissonStream(gs, bad); err == nil {
		t.Error("unknown page choice accepted by stream")
	}
}
