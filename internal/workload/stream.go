package workload

import (
	"fmt"
	"math/rand"

	"tcsa/internal/core"
)

// ShardSize is the number of requests in one stream shard. It is a fixed
// power of two so that shard boundaries — and therefore the per-shard RNG
// seeds and the order partial metrics fold in — never depend on the worker
// count: measuring a stream with 1, 2 or 8 workers visits the exact same
// shards and merges them in the exact same order. It also pins backward
// compatibility: a stream of at most ShardSize requests occupies a single
// shard whose RNG sequence and accumulation order are identical to the
// historical slice-based path, so Figure 5 checksums are preserved
// bit-for-bit.
const ShardSize = 1 << 16

// Stream is a deterministic request source, consumed in fixed-size shards
// so it can be generated on the fly instead of allocated up front. Shard k
// covers requests [k*ShardSize, min((k+1)*ShardSize, Count())); any cursor
// positioned on shard k yields exactly the same requests.
type Stream interface {
	// Count is the total number of requests in the stream.
	Count() int
	// Shards is ceil(Count/ShardSize): the number of independently
	// seekable shards.
	Shards() int
	// Sorted reports whether arrivals are non-decreasing within every
	// shard (true for Poisson streams and pre-sorted slices), which lets
	// the measurement engine walk appearance columns with a cursor
	// instead of a per-request binary search.
	Sorted() bool
	// NewCursor returns a fresh cursor. Cursors are independent: one per
	// worker, reused across shards via Seek, so steady-state measurement
	// allocates nothing.
	NewCursor() Cursor
}

// Cursor iterates one shard at a time.
type Cursor interface {
	// Seek positions the cursor at the start of shard k, resetting any
	// internal generator state deterministically.
	Seek(shard int)
	// Next writes the next request of the current shard into r and
	// reports whether one was produced; false means the shard is done.
	Next(r *Request) bool
}

// shardSeed derives the RNG seed of shard k from the stream seed. Shard 0
// uses the seed verbatim so a single-shard stream replays the one-source
// draw sequence exactly; later shards decorrelate through a splitmix64
// finalizer over seed + k*goldenGamma (the splitmix64 increment), which is
// a bijection per shard index and avalanches every bit.
func shardSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	z := uint64(seed) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func shardCount(count int) int {
	return (count + ShardSize - 1) / ShardSize
}

// shardLen returns the request count of shard k of a count-long stream.
func shardLen(count, k int) int {
	start := k * ShardSize
	if start >= count {
		return 0
	}
	if n := count - start; n < ShardSize {
		return n
	}
	return ShardSize
}

// genKind distinguishes the generator families a genStream can replay.
type genKind int

const (
	genUniform genKind = iota
	genZipf
	genPoisson
)

// genStream generates uniform, Zipf or Poisson request streams shard by
// shard from one math/rand source per shard. Shard 0 draws from the
// configured seed itself, so it is bit-for-bit the sequence one source
// seeded once produces for the same configuration.
type genStream struct {
	kind  genKind
	count int
	pages int
	cycle float64    // slot span of one broadcast cycle (uniform/zipf)
	zipf  *zipfTable // Zipf sampler (zipf, and poisson with ZipfPages)
	rate  float64    // arrivals per slot (poisson only)
	seed  int64
}

// NewStream builds the uniform-arrival request stream cfg describes: per
// request a page draw (uniform or Zipf) then an arrival uniform over the
// cycle. GenerateRequests materialises it.
func NewStream(gs *core.GroupSet, cycleLen int, cfg RequestConfig) (Stream, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	if cfg.Count < 0 {
		return nil, fmt.Errorf("workload: negative request count %d", cfg.Count)
	}
	if cycleLen < 1 {
		return nil, fmt.Errorf("workload: cycle length %d", cycleLen)
	}
	zipf, err := pageTable(gs.Pages(), cfg)
	if err != nil {
		return nil, err
	}
	kind := genUniform
	if zipf != nil {
		kind = genZipf
	}
	return &genStream{
		kind:  kind,
		count: cfg.Count,
		pages: gs.Pages(),
		cycle: float64(cycleLen),
		zipf:  zipf,
		seed:  cfg.Seed,
	}, nil
}

// NewPoissonStream builds the Poisson-arrival request stream cfg
// describes, honouring the configured page-choice model: per request an
// exponential gap then a page draw. GeneratePoissonRequests materialises
// it. Shard k > 0 restarts the arrival clock
// at the expected offset k*ShardSize/Rate, so the stream keeps the
// configured rate while every shard stays independently seekable. Arrivals
// are non-decreasing within each shard (Sorted is true).
func NewPoissonStream(gs *core.GroupSet, cfg PoissonConfig) (Stream, error) {
	if gs == nil {
		return nil, fmt.Errorf("%w: nil group set", core.ErrInvalidGroupSet)
	}
	if cfg.Count < 0 {
		return nil, fmt.Errorf("workload: negative request count %d", cfg.Count)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("workload: poisson rate %f", cfg.Rate)
	}
	zipf, err := pageTable(gs.Pages(), cfg.RequestConfig)
	if err != nil {
		return nil, err
	}
	return &genStream{
		kind:  genPoisson,
		count: cfg.Count,
		pages: gs.Pages(),
		zipf:  zipf,
		rate:  cfg.Rate,
		seed:  cfg.Seed,
	}, nil
}

func (s *genStream) Count() int  { return s.count }
func (s *genStream) Shards() int { return shardCount(s.count) }
func (s *genStream) Sorted() bool {
	return s.kind == genPoisson
}

func (s *genStream) NewCursor() Cursor {
	return &genCursor{stream: s, rng: rand.New(rand.NewSource(s.seed))}
}

type genCursor struct {
	stream    *genStream
	rng       *rand.Rand
	remaining int
	now       float64 // Poisson arrival clock
}

func (c *genCursor) Seek(shard int) {
	s := c.stream
	c.rng.Seed(shardSeed(s.seed, shard))
	c.remaining = shardLen(s.count, shard)
	if s.kind == genPoisson {
		c.now = float64(shard) * ShardSize / s.rate
	}
}

func (c *genCursor) Next(r *Request) bool {
	if c.remaining <= 0 {
		return false
	}
	c.remaining--
	s := c.stream
	// Draw order: page first for uniform/zipf, inter-arrival gap first
	// for Poisson.
	switch s.kind {
	case genUniform:
		r.Page = core.PageID(c.rng.Intn(s.pages))
		r.Arrival = c.rng.Float64() * s.cycle
	case genZipf:
		r.Page = core.PageID(s.zipf.rank(c.rng.Float64()))
		r.Arrival = c.rng.Float64() * s.cycle
	default: // genPoisson
		c.now += c.rng.ExpFloat64() / s.rate
		if s.zipf != nil {
			r.Page = core.PageID(s.zipf.rank(c.rng.Float64()))
		} else {
			r.Page = core.PageID(c.rng.Intn(s.pages))
		}
		r.Arrival = c.now
	}
	return true
}

// sliceStream adapts an already materialised request slice to the Stream
// interface, so MeasureAnalyzed and friends run on the same engine.
type sliceStream struct {
	reqs   []Request
	sorted bool
}

// SliceStream wraps reqs as a Stream. Sortedness (non-decreasing arrivals)
// is detected with one linear scan at construction; the slice is not
// copied and must not be mutated while cursors are live.
func SliceStream(reqs []Request) Stream {
	sorted := true
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			sorted = false
			break
		}
	}
	return &sliceStream{reqs: reqs, sorted: sorted}
}

func (s *sliceStream) Count() int   { return len(s.reqs) }
func (s *sliceStream) Shards() int  { return shardCount(len(s.reqs)) }
func (s *sliceStream) Sorted() bool { return s.sorted }

func (s *sliceStream) NewCursor() Cursor {
	return &sliceCursor{reqs: s.reqs}
}

type sliceCursor struct {
	reqs []Request
	pos  int
	end  int
}

func (c *sliceCursor) Seek(shard int) {
	c.pos = shard * ShardSize
	if c.pos > len(c.reqs) {
		c.pos = len(c.reqs)
	}
	c.end = c.pos + shardLen(len(c.reqs), shard)
}

func (c *sliceCursor) Next(r *Request) bool {
	if c.pos >= c.end {
		return false
	}
	*r = c.reqs[c.pos]
	c.pos++
	return true
}
