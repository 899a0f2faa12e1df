package sim_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/loadgen"
	"tcsa/internal/online"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// TestEnginesRefuseBadRequests drives every engine that places requests
// on the air through sim.CheckRequest: an arrival that is not a finite
// instant >= 0 fails with core.ErrSlotRange, and a page outside the
// instance with core.ErrPageRange, instead of folding NaN into the
// metrics.
func TestEnginesRefuseBadRequests(t *testing.T) {
	gs, err := core.Geometric(2, 2, []int{3, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(prog)
	engines := []struct {
		name string
		run  func(workload.Stream, []workload.Request) error
	}{
		{"sim.MeasureStream", func(s workload.Stream, _ []workload.Request) error {
			_, err := sim.MeasureStream(a, s)
			return err
		}},
		{"chaos.RunParallel", func(s workload.Stream, _ []workload.Request) error {
			_, err := chaos.RunParallel(a, s, chaos.Config{}, 1)
			return err
		}},
		{"loadgen.RunStream", func(s workload.Stream, _ []workload.Request) error {
			_, err := loadgen.RunStream(context.Background(), a, s, chaos.Config{}, loadgen.Options{Workers: 1})
			return err
		}},
		{"chaos.Replay", func(_ workload.Stream, reqs []workload.Request) error {
			_, err := chaos.Replay(prog, reqs, chaos.ReplayConfig{})
			return err
		}},
		{"online.Run", func(s workload.Stream, _ []workload.Request) error {
			_, err := online.Run(prog, s, online.Config{Split: online.Split{OnlineChannels: 1}})
			return err
		}},
	}
	for _, tc := range []struct {
		name string
		bad  workload.Request
		want error
	}{
		{"NaN arrival", workload.Request{Page: 1, Arrival: math.NaN()}, core.ErrSlotRange},
		{"+Inf arrival", workload.Request{Page: 1, Arrival: math.Inf(1)}, core.ErrSlotRange},
		{"negative arrival", workload.Request{Page: 1, Arrival: -1}, core.ErrSlotRange},
		{"page past the instance", workload.Request{Page: core.PageID(gs.Pages()), Arrival: 1}, core.ErrPageRange},
		{"negative page", workload.Request{Page: -1, Arrival: 1}, core.ErrPageRange},
	} {
		reqs := []workload.Request{{Page: 0, Arrival: 0.5}, tc.bad}
		for _, e := range engines {
			if err := e.run(workload.SliceStream(reqs), reqs); !errors.Is(err, tc.want) {
				t.Errorf("%s, %s: err = %v, want %v", e.name, tc.name, err, tc.want)
			}
		}
	}
	// The boundary itself is a valid arrival on every engine.
	reqs := []workload.Request{{Page: 0, Arrival: 0}, {Page: 1, Arrival: 3.25}}
	for _, e := range engines {
		if err := e.run(workload.SliceStream(reqs), reqs); err != nil {
			t.Errorf("%s: valid requests refused: %v", e.name, err)
		}
	}
}
