package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tcsa/internal/core"
	"tcsa/internal/stats"
	"tcsa/internal/workload"
)

// sketchQuantileAccuracy is the relative bucket width of every measurement
// sketch: quantile estimates are within ~1% of the exact order statistic.
const sketchQuantileAccuracy = 0.01

// sketchResolution divides the cycle length to set the smallest resolvable
// wait: anything below L/2^20 slots reports as a zero quantile.
const sketchResolution = 1 << 20

// FNV-1a 64-bit constants of the trace digest (the same family as the
// perf-report series checksums).
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

// fnv64 folds the eight little-endian bytes of v into h. A zero byte
// only multiplies h by the prime, so the zero high bytes of a small value
// (a page ID, an attempt count) fold in one multiplication by a power of
// it.
func fnv64(h, v uint64) uint64 {
	n := 0
	for ; v != 0; n++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	if n < 8 {
		h *= fnvPrimePow[8-n]
	}
	return h
}

// fnvPrimePow[i] is fnvPrime to the i-th power, modulo 2^64.
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for i := 1; i < len(pow); i++ {
		pow[i] = pow[i-1] * fnvPrime
	}
	return pow
}()

// Span is the value range (Lo, Hi] of a quantile sketch: values at or
// below Lo report as zero quantiles, values above Hi clamp into the top
// bucket.
type Span struct{ Lo, Hi float64 }

// CycleSpan is the sketch range for slot waits on a cycle of L slots that
// resolves waits up to cycles cycles.
func CycleSpan(L, cycles float64) Span {
	return Span{Lo: L / sketchResolution, Hi: cycles * L}
}

// Partial is one shard's accumulation: exact moments and left-to-right
// sums of a value and a derived value, a hit count, the shard's trace
// digest, and the claiming worker's quantile sketches. The sketches count
// bins only (stats.Sketch.AddBin): the fold reads their quantiles against
// the shard-ordered moments. Shards are disjoint, so a visit writes its
// partial without synchronisation.
type Partial struct {
	value, derived       stats.Online
	valueSum, derivedSum float64
	hits                 int64
	digest               uint64
	vs, ds               *stats.Sketch
	err                  error
}

// Add folds one request's outcome: its value and derived value, a hit
// when hit is set, and (page, value bits, tag) into the trace digest.
func (p *Partial) Add(page core.PageID, value, derived float64, tag uint64, hit bool) {
	p.value.Add(value)
	p.derived.Add(derived)
	p.valueSum += value
	p.derivedSum += derived
	if hit {
		p.hits++
	}
	p.vs.AddBin(value)
	p.ds.AddBin(derived)
	d := fnv64(p.digest, uint64(uint32(page)))
	d = fnv64(d, math.Float64bits(value))
	p.digest = fnv64(d, tag)
}

// AddWait folds one request served after wait slots: the derived value is
// its delay beyond the page's expected time (the paper's objective), a
// hit is a deadline miss, and the tag counts the delivery attempts the
// request lost before it was served.
func (p *Partial) AddWait(page core.PageID, wait, expected float64, attempts uint64) {
	delay := wait - expected
	if delay < 0 {
		delay = 0
	}
	p.Add(page, wait, delay, attempts, delay > 0)
}

// Fold is every shard's partial folded in ascending shard order.
type Fold struct {
	N                    int
	Value, Derived       stats.Summary
	ValueSum, DerivedSum float64
	Hits                 int64
	// Digest chains the shard digests in shard order; 0 for an empty
	// stream.
	Digest uint64
}

// Metrics reads a fold of waits and delays (see Partial.AddWait).
func (f *Fold) Metrics() Metrics {
	if f.N == 0 {
		return Metrics{}
	}
	n := float64(f.N)
	return Metrics{
		Requests:  f.N,
		AvgWait:   f.ValueSum / n,
		AvgDelay:  f.DerivedSum / n,
		MissRatio: float64(f.Hits) / n,
		Wait:      f.Value,
		Delay:     f.Derived,
	}
}

// Visit measures one shard: cur is positioned at the shard's first
// request, and every request is folded into p. An error stops the run.
type Visit func(shard int, cur workload.Cursor, p *Partial) error

// FoldShards is the sharded measurement kernel. Workers claim
// workload.ShardSize shards of stream from one atomic counter and run the
// worker's own visit (newVisit is called once per worker, so a visit may
// keep per-worker scratch) on each; the kernel then folds the partials in
// ascending shard order and merges the per-worker sketches (integer
// bucket counts, so any merge order gives the same quantiles). Shard
// boundaries and fold order depend only on the stream, so the Fold is
// bit-for-bit identical at any worker count. The error returned is the
// lowest-shard one: shards are claimed in ascending order and a claimed
// shard runs to completion. workers <= 0 uses GOMAXPROCS.
func FoldShards(stream workload.Stream, workers int, value, derived Span, newVisit func() Visit) (Fold, error) {
	count := stream.Count()
	if count == 0 {
		return Fold{}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := stream.Shards()
	if workers > shards {
		workers = shards
	}
	// Each worker folds its current shard into its own Partial, padded so
	// that no two workers write the same cache line, and stores it into
	// the shard table when the shard is done.
	type worker struct {
		p Partial
		_ [128]byte
	}
	ws := make([]worker, workers)
	for w := range ws {
		var err1, err2 error
		ws[w].p.vs, err1 = stats.NewSketch(value.Lo, value.Hi, sketchQuantileAccuracy)
		ws[w].p.ds, err2 = stats.NewSketch(derived.Lo, derived.Hi, sketchQuantileAccuracy)
		if err := errors.Join(err1, err2); err != nil {
			return Fold{}, err
		}
	}

	partials := make([]Partial, shards)
	// One struct, so the workers' shared state is one allocation.
	var shared struct {
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	}
	for w := range ws {
		shared.wg.Add(1)
		go func(p *Partial) {
			defer shared.wg.Done()
			visit := newVisit()
			cur := stream.NewCursor()
			for !shared.failed.Load() {
				k := int(shared.next.Add(1)) - 1
				if k >= shards {
					return
				}
				*p = Partial{vs: p.vs, ds: p.ds, digest: fnvOffset}
				cur.Seek(k)
				p.err = visit(k, cur, p)
				partials[k] = *p
				if p.err != nil {
					shared.failed.Store(true)
					return
				}
			}
		}(&ws[w].p)
	}
	shared.wg.Wait()

	f := Fold{N: count, Digest: fnvOffset}
	var vm, dm stats.Online
	for k := range partials {
		p := &partials[k]
		if p.err != nil {
			return Fold{}, p.err
		}
		vm.Merge(p.value)
		dm.Merge(p.derived)
		f.ValueSum += p.valueSum
		f.DerivedSum += p.derivedSum
		f.Hits += p.hits
		f.Digest = fnv64(f.Digest, p.digest)
	}
	vs, ds := ws[0].p.vs, ws[0].p.ds
	for w := 1; w < workers; w++ {
		if err := vs.Merge(ws[w].p.vs); err != nil {
			return Fold{}, err
		}
		if err := ds.Merge(ws[w].p.ds); err != nil {
			return Fold{}, err
		}
	}
	f.Value = vs.SummaryOf(vm)
	f.Derived = ds.SummaryOf(dm)
	return f, nil
}

// CheckRequest rejects a request the engines cannot place: a page outside
// [0, pages) or an arrival that is not a finite instant >= 0 (NaN fails
// both compares of the range check). idx is the request's position in its
// stream.
func CheckRequest(r *workload.Request, idx int64, pages int) error {
	if r.Page < 0 || int(r.Page) >= pages {
		return fmt.Errorf("%w: request %d page %d", core.ErrPageRange, idx, r.Page)
	}
	if !(r.Arrival >= 0 && r.Arrival <= math.MaxFloat64) {
		return fmt.Errorf("%w: request %d arrival %v outside [0, +Inf)", core.ErrSlotRange, idx, r.Arrival)
	}
	return nil
}

// ExpectedTimes is every page's expected time as a float, indexed by page:
// GroupSet.TimeOf binary-searches the group table, which is too hot for a
// per-request loop.
func ExpectedTimes(gs *core.GroupSet) []float64 {
	times := make([]float64, gs.Pages())
	for i := range times {
		times[i] = float64(gs.TimeOf(core.PageID(i)))
	}
	return times
}

// pageCursor is one page's position in its ascending instant list while a
// worker walks a shard whose arrivals are non-decreasing: k is the
// smallest index not yet known to precede prev.
type pageCursor struct {
	k    int32
	prev float64
}

// Cursors holds one pageCursor per page for a sorted stream, and is nil
// for an unsorted one.
type Cursors []pageCursor

// NewCursors returns per-page cursors when sorted is set, nil otherwise.
func NewCursors(sorted bool, pages int) Cursors {
	if !sorted {
		return nil
	}
	return make(Cursors, pages)
}

// NextIndex returns the index of the first of page's ascending instants
// at or after u, or len(at) when none is. With cursors it advances from
// the previous request's position (each list is scanned at most once per
// cycle wrap or shard); without, it binary-searches. Instants are
// integers, so at[i] >= u selects the same index as at[i] >= ceil(u).
func NextIndex[T int32 | int64](cs Cursors, page core.PageID, at []T, u float64) int32 {
	if cs == nil {
		return int32(sort.Search(len(at), func(i int) bool { return float64(at[i]) >= u }))
	}
	pc := &cs[page]
	if u < pc.prev {
		pc.k = 0 // the arrival wrapped to a new cycle, or a new shard began
	}
	pc.prev = u
	k := pc.k
	for int(k) < len(at) && float64(at[k]) < u {
		k++
	}
	pc.k = k
	return k
}

// WaitAt is the cyclic wait from offset u to appearance k of cols, where
// k == len(cols) means the next cycle's first appearance: the arithmetic
// of core.Analysis.NextAfter, bit for bit.
func WaitAt(cols []int32, k int32, u, L float64) float64 {
	if int(k) == len(cols) {
		return float64(cols[0]) + L - u
	}
	return float64(cols[k]) - u
}
