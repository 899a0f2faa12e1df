// Package perf fingerprints the numeric series the reproduction computes,
// so a test or a benchmark can tell "costs more" from "now computes
// something different": cmd/airbench's golden test pins each committed
// result by its checksum, and the bench driver checks its runs against
// reference series the same way.
package perf

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// SeriesChecksum fingerprints a float series with FNV-1a over the exact
// IEEE-754 bits, little-endian. Bit-identical series — the contract the
// sweep engine and analysis refactors are held to — therefore produce
// identical checksums, and any numeric drift changes them.
func SeriesChecksum(vals []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
