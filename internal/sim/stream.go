package sim

import (
	"errors"

	"tcsa/internal/core"
	"tcsa/internal/workload"
)

// MeasureStream evaluates a request stream against a finished program's
// analysis without materialising the requests or retaining samples: one
// pass, O(1) memory in the request count. It is MeasureParallel at one
// worker and produces bit-identical Metrics to it at any worker count.
func MeasureStream(a *core.Analysis, stream workload.Stream) (*Metrics, error) {
	return MeasureParallel(a, stream, 1)
}

// MeasureParallel is MeasureStream sharded across a worker pool by the
// FoldShards kernel, so the returned Metrics are bit-for-bit identical for
// any worker count, including 1 (the serial path). workers <= 0 uses
// GOMAXPROCS.
func MeasureParallel(a *core.Analysis, stream workload.Stream, workers int) (*Metrics, error) {
	f, err := MeasureFold(a, stream, workers)
	if err != nil {
		return nil, err
	}
	m := f.Metrics()
	return &m, nil
}

// MeasureFold is MeasureParallel's fold, trace digest included: each
// request waits from its arrival to the next appearance of its page in the
// cyclic program, with no attempt lost.
func MeasureFold(a *core.Analysis, stream workload.Stream, workers int) (Fold, error) {
	if a == nil {
		return Fold{}, errors.New("sim: nil analysis")
	}
	if stream == nil {
		return Fold{}, errors.New("sim: nil stream")
	}
	ix := a.Index()
	pages := a.Program().GroupSet().Pages()
	times := ExpectedTimes(a.Program().GroupSet())
	L := float64(a.Program().Length())
	sorted := stream.Sorted()
	span := CycleSpan(L, 1)
	return FoldShards(stream, workers, span, span, func() Visit {
		cursors := NewCursors(sorted, pages)
		var r workload.Request
		return func(shard int, cur workload.Cursor, p *Partial) error {
			for local := 0; cur.Next(&r); local++ {
				if err := CheckRequest(&r, int64(shard)*workload.ShardSize+int64(local), pages); err != nil {
					return err
				}
				// The program is cyclic, so arrivals beyond the first
				// cycle (e.g. Poisson streams) fold back into it.
				u := core.CycleMod(r.Arrival, L)
				wait := L
				if cols := ix.Columns(r.Page); len(cols) != 0 {
					wait = WaitAt(cols, NextIndex(cursors, r.Page, cols, u), u, L)
				}
				p.AddWait(r.Page, wait, times[r.Page], 0)
			}
			return nil
		}
	})
}
