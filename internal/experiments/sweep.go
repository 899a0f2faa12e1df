package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tcsa/internal/workload"
)

// sweepChannelCounts returns the x-axis of one Figure 5 subplot: every
// stride-th channel count from 1, with the Theorem 3.1 minimum always
// included as the right endpoint.
func sweepChannelCounts(minChannels, stride int) []int {
	counts := make([]int, 0, minChannels/stride+2)
	for n := 1; n <= minChannels; n += stride {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != minChannels {
		counts = append(counts, minChannels)
	}
	return counts
}

// Figure5 reproduces one subplot of the paper's Figure 5: AvgD of PAMAD,
// m-PB and OPT as the channel count sweeps from 1 to the Theorem 3.1
// minimum for the given group-size distribution. Points run on workers
// goroutines at a time (workers <= 0 means GOMAXPROCS). Every point
// derives its request seed from (master seed, channel count, algorithm)
// exactly as the historical serial loop did, so the series is bit-for-bit
// identical at any worker count, 1 being the serial sweep — see
// TestSweepMatchesSerialReference. Errors carry the same
// "experiments: <dist> at <n> channels" context at every point, the right
// endpoint included.
func Figure5(ctx context.Context, p Params, dist workload.Distribution, workers int) (*Fig5Series, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	gs, err := p.Instance(dist)
	if err != nil {
		return nil, err
	}
	series := &Fig5Series{Dist: dist, Set: gs, MinChannels: gs.MinChannels()}
	counts := sweepChannelCounts(series.MinChannels, p.ChannelStride)

	points := make([]*Fig5Point, len(counts))
	errs := make([]error, len(counts))
	var wg sync.WaitGroup
	for i, n := range counts {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			points[i], errs[i] = figure5Point(ctx, p, gs, n)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %v at %d channels: %w", dist, counts[i], err)
		}
	}
	series.Points = make([]Fig5Point, len(points))
	for i, pt := range points {
		series.Points[i] = *pt
	}
	return series, nil
}
