package online

import (
	"testing"

	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// pullTierInput is the pull tier's operating point: the paper's Figure 4
// instance (uniform over 8 groups, 1,000 pages) on 1/5 of its minimum
// channels, 2^20 Poisson Zipf(0.8) arrivals at 16 per slot, LWF on two
// reserved online channels, measured by two workers.
func pullTierInput(b *testing.B) (*core.Program, workload.Stream, Config) {
	b.Helper()
	gs, err := workload.GroupSet(workload.Uniform, workload.PaperGroups, workload.PaperPages,
		workload.PaperBaseTime, workload.PaperRatio)
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, core.CeilDiv(gs.MinChannels(), 5))
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 1 << 20, Seed: 1, Choice: workload.ZipfPages, Theta: 0.8},
		Rate:          16,
	})
	if err != nil {
		b.Fatal(err)
	}
	return prog, stream, Config{
		Policy:      LWF,
		Split:       Split{Mode: SplitReserved, OnlineChannels: 2},
		Workers:     2,
		RecordFlows: true,
	}
}

// BenchmarkOnlineRun times Run on the pull tier's input, then each of its
// phases alone: admit (the stream bucketed by admission slot), schedule
// (the serial decision pass), measure (the sharded flow fold) and one
// serial pass over the stream, the unit the other phases pay per request.
func BenchmarkOnlineRun(b *testing.B) {
	prog, stream, cfg := pullTierInput(b)
	pages := prog.GroupSet().Pages()
	ad, err := admit(stream, pages)
	if err != nil {
		b.Fatal(err)
	}
	airings, _, _, err := schedule(prog, ad, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, phase := range []struct {
		name string
		run  func() error
	}{
		{"run", func() error { _, err := Run(prog, stream, cfg); return err }},
		{"admit", func() error { _, err := admit(stream, pages); return err }},
		{"schedule", func() error { _, _, _, err := schedule(prog, ad, cfg); return err }},
		{"measure", func() error { _, err := measure(prog, stream, airings, cfg); return err }},
		{"stream", func() error {
			cur := stream.NewCursor()
			var r workload.Request
			for k := 0; k < stream.Shards(); k++ {
				cur.Seek(k)
				for cur.Next(&r) {
				}
			}
			return nil
		}},
	} {
		b.Run(phase.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := phase.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
