package loadgen

import (
	"math"

	"tcsa/internal/core"
)

// chunkLen is how many client records one calendar chunk holds. A chunk
// of 32 is 1.5 KiB, long enough for the drain to stream its records; a
// calendar's partial tail chunks, at most one per bucket, waste at most
// 2L·chunkLen records beside the clients themselves.
const chunkLen = 32

// chunk is a run of records in one calendar bucket, filled front to back.
type chunk struct {
	n    int32 // records in use
	next int32 // the bucket's next chunk, or the next free chunk; -1 ends either list
	recs [chunkLen]client
}

// bucket is one calendar slot's list of chunks; records append to the
// tail chunk, and every chunk before it is full.
type bucket struct{ head, tail int32 }

// calendar queues clients by wake slot: a ring of buckets indexed by
// absolute slot mod len(buckets), each a list of chunks drawn from one
// arena with a free list. The drain takes a bucket, reads its chunks
// front to back, pushes each unfinished client into its next wake's
// bucket and releases each drained chunk, so retries reuse it.
//
// The arena is sized once, by arenaBound, and never moves: a chunk is
// named by its index, and an allocation reslices within the capacity.
type calendar struct {
	buckets []bucket
	chunks  []chunk
	free    int32 // head of the free list, -1 when empty
}

// arenaBound is how many chunks a calendar of window buckets over owned
// clients can hold at once, or false when that is past what int32 chunk
// indices address.
//
// With P clients pending, every live chunk but the one being drained
// holds a pending client no other chunk holds, so at most P+1 chunks are
// live. Also, every chunk but a bucket's tail is full, so a bucket
// holding k clients takes ⌈k/chunkLen⌉ chunks; over the window's buckets,
// the drained one counted by the unread chunks after the one being read,
// these sum to at most ⌈P/chunkLen⌉ + window - 1, and the chunk being
// read adds one. P never exceeds owned, and the arena grows only when the
// free list is empty, so it never holds more than the smaller bound.
func arenaBound(owned int, window int64) (int32, bool) {
	if window > math.MaxInt32 {
		return 0, false
	}
	bound := int64(core.CeilDiv(owned, chunkLen)) + window
	if int64(owned) < bound {
		bound = int64(owned) + 1
	}
	if bound > math.MaxInt32 {
		return 0, false
	}
	return int32(bound), true
}

// newCalendar returns an empty calendar of window buckets whose arena
// holds arenaBound(owned, window) chunks; RunStream has checked that
// int32 indices address them.
func newCalendar(owned int, window int64) calendar {
	bound, _ := arenaBound(owned, window)
	cal := calendar{
		buckets: make([]bucket, window),
		chunks:  make([]chunk, 0, bound),
		free:    -1,
	}
	for i := range cal.buckets {
		cal.buckets[i] = bucket{-1, -1}
	}
	return cal
}

// push appends a copy of c to the bucket of its wake slot, c.Next.
func (cal *calendar) push(c *client) {
	b := &cal.buckets[c.Next%int64(len(cal.buckets))]
	t := b.tail
	if t < 0 || cal.chunks[t].n == chunkLen {
		k := cal.alloc()
		if t < 0 {
			b.head = k
		} else {
			cal.chunks[t].next = k
		}
		b.tail, t = k, k
	}
	ch := &cal.chunks[t]
	ch.recs[ch.n] = *c
	ch.n++
}

// alloc returns an empty chunk, from the free list while it has one.
func (cal *calendar) alloc() int32 {
	k := cal.free
	if k >= 0 {
		cal.free = cal.chunks[k].next
	} else {
		// Within capacity by arenaBound, so the arena does not move.
		k = int32(len(cal.chunks))
		cal.chunks = cal.chunks[:k+1]
	}
	// Clearing the whole chunk fetches its cache lines in one burst. A
	// fresh chunk's lines are cold, and records pushed one at a time into
	// them would each wait on its own fetch; the calendar fills 2L chunks
	// at once, far more streams than the prefetcher follows.
	cal.chunks[k] = chunk{next: -1}
	return k
}

// take detaches slot s's bucket and returns its first chunk, -1 if the
// bucket is empty.
func (cal *calendar) take(s int64) int32 {
	b := &cal.buckets[s%int64(len(cal.buckets))]
	k := b.head
	*b = bucket{-1, -1}
	return k
}

// release returns drained chunk k to the free list and returns the chunk
// that followed it in its bucket.
func (cal *calendar) release(k int32) int32 {
	next := cal.chunks[k].next
	cal.chunks[k].next = cal.free
	cal.free = k
	return next
}
