package online

import (
	"testing"

	"tcsa/internal/pamad"
	"tcsa/internal/susc"
	"tcsa/internal/workload"
)

// assertResultsEqual compares two Results bit for bit: every moment, every
// sketch-derived quantile, the digest, the airing log, and (when recorded)
// every per-request flow.
func assertResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Requests != b.Requests || a.PushServed != b.PushServed || a.OnlineServed != b.OnlineServed {
		t.Fatalf("%s: served counts differ: %d/%d/%d vs %d/%d/%d", label,
			a.Requests, a.PushServed, a.OnlineServed, b.Requests, b.PushServed, b.OnlineServed)
	}
	if a.OnlineAirings != b.OnlineAirings || a.StolenSlots != b.StolenSlots || a.HorizonSlots != b.HorizonSlots {
		t.Fatalf("%s: airing counts differ: %d/%d/%d vs %d/%d/%d", label,
			a.OnlineAirings, a.StolenSlots, a.HorizonSlots, b.OnlineAirings, b.StolenSlots, b.HorizonSlots)
	}
	if a.AvgFlow != b.AvgFlow || a.MaxFlow != b.MaxFlow ||
		a.AvgDelayFactor != b.AvgDelayFactor || a.MaxDelayFactor != b.MaxDelayFactor {
		t.Fatalf("%s: scalar metrics differ:\n%+v\n%+v", label, a, b)
	}
	if a.Flow != b.Flow {
		t.Fatalf("%s: flow summaries differ:\n%+v\n%+v", label, a.Flow, b.Flow)
	}
	if a.DelayFactor != b.DelayFactor {
		t.Fatalf("%s: delay-factor summaries differ:\n%+v\n%+v", label, a.DelayFactor, b.DelayFactor)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Fatalf("%s: trace digests differ: %016x vs %016x", label, a.TraceDigest, b.TraceDigest)
	}
	if len(a.Airings) != len(b.Airings) {
		t.Fatalf("%s: airing logs differ in length: %d vs %d", label, len(a.Airings), len(b.Airings))
	}
	for i := range a.Airings {
		if a.Airings[i] != b.Airings[i] {
			t.Fatalf("%s: airing %d differs: %+v vs %+v", label, i, a.Airings[i], b.Airings[i])
		}
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("%s: flow records differ in length: %d vs %d", label, len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] || a.ServedOnline[i] != b.ServedOnline[i] {
			t.Fatalf("%s: request %d differs: flow %g/%v vs %g/%v", label, i,
				a.Flows[i], a.ServedOnline[i], b.Flows[i], b.ServedOnline[i])
		}
	}
}

// TestDifferentialSerialVsParallel is the tentpole's bit-identity gate:
// for every policy, every split mode, and three stream families, the
// production Run at worker counts 1/4/8/32 must equal the retained serial
// reference in every float, digest and airing.
func TestDifferentialSerialVsParallel(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 3, 36, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := pamad.Build(gs, 4) // scarce enough that both tiers work
	if err != nil {
		t.Fatal(err)
	}
	prog.Clear(0, 0) // one empty cell for the steal split
	uniform, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: 900, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{
		Count: 900, Choice: workload.ZipfPages, Theta: 0.9, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	poisson, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 900, Seed: 13},
		Rate:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]workload.Stream{"uniform": uniform, "zipf": zipf, "poisson": poisson}
	splits := []Split{
		{Mode: SplitReserved, OnlineChannels: 2},
		{Mode: SplitSteal, StealThreshold: 2},
		{Mode: SplitPureOnline},
	}
	for name, stream := range streams {
		for _, policy := range Policies() {
			for _, split := range splits {
				cfg := Config{Policy: policy, Split: split, RecordFlows: true}
				ref, err := RunSerial(prog, stream, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: reference: %v", name, policy, split, err)
				}
				for _, workers := range []int{1, 4, 8, 32} {
					cfg.Workers = workers
					got, err := Run(prog, stream, cfg)
					if err != nil {
						t.Fatalf("%s/%v/%v/w%d: %v", name, policy, split, workers, err)
					}
					label := name + "/" + policy.String() + "/" + split.String() + "/w" + string(rune('0'+workers%10))
					assertResultsEqual(t, label, ref, got)
				}
			}
		}
	}
}

// TestDifferentialMultiShard exercises genuine multi-shard parallelism:
// 150k Poisson requests span three workload.ShardSize shards, so workers
// actually race over the shard counter and the fold order matters.
func TestDifferentialMultiShard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard differential is a few seconds")
	}
	gs, err := workload.GroupSet(workload.Uniform, 2, 24, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewPoissonStream(gs, workload.PoissonConfig{
		RequestConfig: workload.RequestConfig{Count: 150_000, Seed: 21},
		Rate:          60,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: LWF, Split: Split{Mode: SplitReserved, OnlineChannels: 1}}
	ref, err := RunSerial(prog, stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		cfg.Workers = workers
		got, err := Run(prog, stream, cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		assertResultsEqual(t, "multi-shard", ref, got)
	}
	if ref.Requests != 150_000 || ref.PushServed+ref.OnlineServed != ref.Requests {
		t.Fatalf("conservation: %+v", ref)
	}
}

// TestRecordFlowsOptional: withholding RecordFlows must not change any
// metric, only drop the per-request arrays.
func TestRecordFlowsOptional(t *testing.T) {
	gs, err := workload.GroupSet(workload.Uniform, 2, 12, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := susc.Build(gs, gs.MinChannels())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewStream(gs, prog.Length(), workload.RequestConfig{Count: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Policy: MRF, Split: Split{Mode: SplitReserved, OnlineChannels: 1}}
	bare, err := Run(prog, stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecordFlows = true
	full, err := Run(prog, stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Flows != nil || bare.ServedOnline != nil {
		t.Fatal("per-request records present without RecordFlows")
	}
	if len(full.Flows) != 300 || len(full.ServedOnline) != 300 {
		t.Fatalf("per-request records missing: %d/%d", len(full.Flows), len(full.ServedOnline))
	}
	if bare.TraceDigest != full.TraceDigest || bare.Flow != full.Flow || bare.AvgFlow != full.AvgFlow {
		t.Fatal("RecordFlows changed the metrics")
	}
}
