package online

import (
	"math/rand"
	"testing"

	"tcsa/internal/conformance"
	"tcsa/internal/core"
	"tcsa/internal/pamad"
	"tcsa/internal/workload"
)

// FuzzOnlineEquivalence drives random request interleavings through every
// knob of the online tier — policy, split mode, split parameter, worker
// count — and asserts the two load-bearing contracts at once: the sharded
// parallel path is bit-identical to the serial reference, and the outcome
// passes the brute-force conservation and push-integrity oracles.
func FuzzOnlineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0), uint8(1), uint8(1))
	f.Add(int64(2), uint8(90), uint8(1), uint8(1), uint8(3), uint8(4))
	f.Add(int64(3), uint8(17), uint8(2), uint8(2), uint8(0), uint8(8))
	f.Add(int64(4), uint8(255), uint8(3), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, count, policyB, modeB, param, workersB uint8) {
		gs, err := workload.GroupSet(workload.Uniform, 2, 12, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := pamad.Build(gs, 2) // scarce: spill makes both tiers matter
		if err != nil {
			t.Fatal(err)
		}
		prog.Clear(0, 0) // empty cell so steal splits terminate
		policy := Policy(int(policyB) % len(Policies()))
		var split Split
		switch modeB % 3 {
		case 0:
			split = Split{Mode: SplitReserved, OnlineChannels: 1 + int(param)%3}
		case 1:
			split = Split{Mode: SplitSteal, StealThreshold: float64(int(param) % 12)}
		default:
			split = Split{Mode: SplitPureOnline}
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(count)
		pages := make([]core.PageID, n)
		arrivals := make([]float64, n)
		reqs := make([]workload.Request, n)
		for i := 0; i < n; i++ {
			pages[i] = core.PageID(rng.Intn(gs.Pages()))
			arrivals[i] = rng.Float64() * 64
			reqs[i] = workload.Request{Page: pages[i], Arrival: arrivals[i]}
		}
		stream := workload.SliceStream(reqs)
		cfg := Config{Policy: policy, Split: split, RecordFlows: true}
		ref, refErr := RunSerial(prog, stream, cfg)
		cfg.Workers = 1 + int(workersB)%8
		got, gotErr := Run(prog, stream, cfg)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("error disagreement: serial %v, parallel %v", refErr, gotErr)
		}
		if refErr != nil {
			return // both failed identically (e.g. unservable split) — fine
		}
		assertResultsEqual(t, "fuzz", ref, got)
		rows := pushRowsOf(prog, split)
		air := toSlotAirings(got.Airings)
		if err := conformance.OnlineConservation(prog, rows, air, pages, arrivals, got.Flows); err != nil {
			t.Fatal(err)
		}
		if err := conformance.PushIntegrity(prog, rows, air); err != nil {
			t.Fatal(err)
		}
		if got.PushServed+got.OnlineServed != got.Requests {
			t.Fatalf("conservation: %+v", got)
		}
	})
}
