package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tcsa/internal/workload"
)

// TestFNVMatchesByteLoop pins the zero-byte shortcut of fnv64 against the
// plain byte-at-a-time FNV-1a loop, on values of every byte length and
// with interior zero bytes.
func TestFNVMatchesByteLoop(t *testing.T) {
	byteLoop := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
		}
		return h
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		h := rng.Uint64()
		v := rng.Uint64() >> uint(rng.Intn(65))
		if i%3 == 0 {
			v &^= 0xff << (8 * uint(rng.Intn(8)))
		}
		if got, want := fnv64(h, v), byteLoop(h, v); got != want {
			t.Fatalf("fnv64(%#x, %#x) = %#x, byte loop %#x", h, v, got, want)
		}
	}
}

// TestNextIndexCursorMatchesSearch walks non-decreasing instants, with a
// restart in the middle as at a shard boundary, through both lookups on
// int32 columns and int64 airing slots.
func TestNextIndexCursorMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := []int32{1, 4, 4, 9, 30}
	slots := []int64{0, 2, 7, 7, 8, 1 << 40}
	us := make([]float64, 400)
	for i := range us {
		us[i] = rng.Float64() * 40
		if i%5 == 0 {
			us[i] = float64(rng.Intn(40)) // exact hits
		}
	}
	sort.Float64s(us[:200])
	sort.Float64s(us[200:])
	cursors := NewCursors(true, 2)
	for _, u := range us {
		if got, want := NextIndex(cursors, 0, cols, u), NextIndex(nil, 0, cols, u); got != want {
			t.Fatalf("int32 u=%v: cursor %d, search %d", u, got, want)
		}
		if got, want := NextIndex(cursors, 1, slots, u), NextIndex(nil, 1, slots, u); got != want {
			t.Fatalf("int64 u=%v: cursor %d, search %d", u, got, want)
		}
	}
}

// TestFoldShardsLowestShardError: whatever the worker count, the error
// returned is the one of the lowest failing shard.
func TestFoldShardsLowestShardError(t *testing.T) {
	stream := workload.SliceStream(make([]workload.Request, 6*workload.ShardSize))
	span := CycleSpan(8, 1)
	for _, workers := range []int{1, 2, 3, 8} {
		_, err := FoldShards(stream, workers, span, span, func() Visit {
			return func(shard int, _ workload.Cursor, _ *Partial) error {
				if shard == 2 || shard == 4 {
					return fmt.Errorf("shard %d", shard)
				}
				return nil
			}
		})
		if err == nil || err.Error() != "shard 2" {
			t.Fatalf("%d workers: got %v, want the shard 2 error", workers, err)
		}
	}
}

// TestFoldShardsRejectsBadSpan: an empty sketch range is an error before
// any shard runs.
func TestFoldShardsRejectsBadSpan(t *testing.T) {
	stream := workload.SliceStream(make([]workload.Request, 3))
	_, err := FoldShards(stream, 1, Span{Lo: 1, Hi: 1}, CycleSpan(8, 1), func() Visit {
		return func(int, workload.Cursor, *Partial) error { return errors.New("visited") }
	})
	if err == nil || err.Error() == "visited" {
		t.Fatalf("got %v, want a sketch range error", err)
	}
}
