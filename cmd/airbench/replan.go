package main

import (
	"fmt"
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/perf"
	"tcsa/internal/replan"
	"tcsa/internal/workload"
)

// replanSpeedupFloor is the committed incremental-vs-rebuild gate: a
// single-page delta at 10^5 pages must replan at least this many times
// faster than a from-scratch PAMAD build. The run fails below the floor,
// making the O(Δ) claim a CI invariant rather than a doc comment.
const replanSpeedupFloor = 10.0

// runReplan measures the incremental replan engine against the
// from-scratch rebuild it replaces, on the paper's instance scaled x100
// (10^5 pages). Its load-bearing assertions are (1) the differential
// identity — after every retire/add round trip the engine's live grid is
// bit-identical to the from-scratch build, checked in-process via the grid
// fingerprint — and (2) the speedup floor: a single-page event must beat
// the full rebuild by at least replanSpeedupFloor x.
func runReplan(rec *recorder) error {
	gs, err := workload.GroupSet(workload.Uniform, 8, 100_000, 4, 2)
	if err != nil {
		return err
	}
	n := core.CeilDiv(gs.MinChannels(), 5)
	h := gs.Len()

	// The cost a dynamic event pays without the engine: rederive the
	// frequency assignment and replace the whole grid.
	var fullProg *core.Program
	full := rec.add("ReplanFullRebuild", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog, _, err := pamad.Build(gs, n)
			if err != nil {
				b.Fatal(err)
			}
			fullProg = prog
		}
	}), perf.SeriesChecksum(gridFloats(fullProg)))

	eng, err := replan.New(gs, n)
	if err != nil {
		return err
	}
	if got := perf.SeriesChecksum(gridFloats(eng.Program())); got != full.Checksum {
		return fmt.Errorf("engine bootstrap grid %s != from-scratch grid %s", got, full.Checksum)
	}

	// One retire + one add on the last group: a suffix replay plus an
	// append, the two incremental paths a single-page delta exercises. The
	// pair is a round trip, so the engine's grid must land bit-identical
	// to the initial build after every iteration — checked below by
	// fingerprint, which is the in-process differential gate.
	var lastKinds [2]replan.Kind
	pair := rec.add("ReplanRetireAddPair", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dr, err := eng.RetirePage(h - 1)
			if err != nil {
				b.Fatal(err)
			}
			da, err := eng.AddPage(h - 1)
			if err != nil {
				b.Fatal(err)
			}
			lastKinds = [2]replan.Kind{dr.Kind, da.Kind}
		}
	}), perf.SeriesChecksum(gridFloats(eng.Program())))
	if pair.Checksum != full.Checksum {
		return fmt.Errorf("grid drifted after retire/add round trips: %s != %s", pair.Checksum, full.Checksum)
	}
	if k := lastKinds[0]; k == replan.KindRebuild || k == replan.KindNone {
		return fmt.Errorf("retire took the %v path, want an incremental kind", k)
	}
	fmt.Fprintf(rec.out, "round-trip identity holds: engine grid == from-scratch grid (%s); kinds retire=%v add=%v\n",
		full.Checksum, lastKinds[0], lastKinds[1])

	perEvent := pair.NsPerOp / 2
	speedup := full.NsPerOp / perEvent
	fmt.Fprintf(rec.out, "single-page delta: %12.0f ns/event, full rebuild %12.0f ns  =>  %.1fx speedup (floor %.0fx)\n",
		perEvent, full.NsPerOp, speedup, replanSpeedupFloor)
	if speedup < replanSpeedupFloor {
		return fmt.Errorf("incremental speedup %.1fx below the %.0fx floor", speedup, replanSpeedupFloor)
	}
	return nil
}
