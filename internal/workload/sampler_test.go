package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"tcsa/internal/core"
)

// searchCDF returns the first index whose cumulative probability covers u
// (the last index when none does), by binary search. It is the oracle the
// guided sampler is checked against.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// streamDigest is the FNV-1a fingerprint of every request of s in stream
// order: page (4 bytes) then arrival bits (8 bytes), little-endian.
func streamDigest(t *testing.T, s Stream) string {
	t.Helper()
	h := fnv.New64a()
	var buf [12]byte
	for _, r := range collect(t, s) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r.Page))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(r.Arrival))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestZipfStreamChecksum pins the Zipf streams draw for draw: a 2^17-request
// Poisson Zipf(0.8) stream at 16 arrivals per slot over the paper's 1,000
// pages (two shards), and a uniform-arrival Zipf(0.5) stream of the same
// size over a 419-slot cycle. The literals were recorded with the
// binary-search sampler, so any change to the sampler that moves a single
// draw fails here; no golden row draws a Zipf stream.
func TestZipfStreamChecksum(t *testing.T) {
	gs, err := GroupSet(Normal, PaperGroups, PaperPages, PaperBaseTime, PaperRatio)
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := NewPoissonStream(gs, PoissonConfig{
		RequestConfig: RequestConfig{Count: 1 << 17, Seed: 1, Choice: ZipfPages, Theta: 0.8},
		Rate:          16,
	})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := NewStream(gs, 419, RequestConfig{Count: 1 << 17, Seed: 7, Choice: ZipfPages, Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    Stream
		want string
	}{
		{"poisson-zipf0.8", poisson, "cd83904693f4117a"},
		{"uniform-zipf0.5", uniform, "f1df80dbadd6854b"},
	} {
		if got := streamDigest(t, tc.s); got != tc.want {
			t.Errorf("%s: stream digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestZipfTableMatchesSearch: the guided sampler returns the binary
// search's rank for every u it can meet — a million random draws, every
// CDF knot and guide cutpoint with both float neighbours, and the ends of
// [0, 1] — over tiny and large catalogues and the whole theta range.
func TestZipfTableMatchesSearch(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 3, 1000, 100_000} {
		for _, theta := range []float64{0.1, 0.5, 0.8, 1} {
			z := newZipfTable(zipfCDF(n, theta))
			check := func(u float64) {
				if got, want := z.rank(u), searchCDF(z.cdf, u); got != want {
					t.Fatalf("n=%d theta=%g: rank(%v) = %d, binary search %d", n, theta, u, got, want)
				}
			}
			around := func(u float64) {
				check(math.Nextafter(u, math.Inf(-1)))
				check(u)
				check(math.Nextafter(u, math.Inf(1)))
			}
			for i := 0; i < draws; i++ {
				check(rng.Float64())
			}
			for _, c := range z.cdf {
				around(c)
			}
			for j := range z.guide {
				around(float64(j) / z.m)
			}
			around(0)
			around(1)
			check(math.Inf(-1))
			check(math.Inf(1))
		}
	}
}

// TestZipfTableGuide: guide[j] is the first rank whose cumulative
// probability reaches j/m, and the table has one cutpoint per rank plus
// the top one.
func TestZipfTableGuide(t *testing.T) {
	for _, n := range []int{1, 2, 7, 1000} {
		z := newZipfTable(zipfCDF(n, 0.8))
		if len(z.guide) != n+1 {
			t.Fatalf("n=%d: %d cutpoints, want %d", n, len(z.guide), n+1)
		}
		for j, g := range z.guide {
			if want := searchCDF(z.cdf, float64(j)/z.m); int(g) != want {
				t.Errorf("n=%d: guide[%d] = %d, want %d", n, j, g, want)
			}
		}
	}
}

// BenchmarkZipfStream draws one shard of a Poisson Zipf(0.8) stream over
// the paper's 1,000 pages, the pull tier's request shape; ns/op is per
// shard, ns/req per request.
func BenchmarkZipfStream(b *testing.B) {
	gs, err := GroupSet(Normal, PaperGroups, PaperPages, PaperBaseTime, PaperRatio)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewPoissonStream(gs, PoissonConfig{
		RequestConfig: RequestConfig{Count: ShardSize, Seed: 1, Choice: ZipfPages, Theta: 0.8},
		Rate:          16,
	})
	if err != nil {
		b.Fatal(err)
	}
	cur := s.NewCursor()
	var r Request
	var sink core.PageID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Seek(0)
		for cur.Next(&r) {
			sink ^= r.Page
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ShardSize), "ns/req")
	_ = sink
}
