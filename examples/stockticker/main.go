// Stock ticker: the paper's first motivating scenario (§1) end to end.
//
// A brokerage broadcasts quote pages for 60 instruments over the air.
// Clients' freshness requirements differ per instrument — day traders on
// hot stocks tolerate only a few slots of staleness, index followers far
// more — and the server does not know them a priori. The pipeline:
//
//  1. clients piggyback their tolerated wait on every pull request
//     (internal/estimator, the paper's "piggyback technique" citation);
//
//  2. the server takes a conservative per-page estimate and rearranges the
//     raw times onto geometric groups (paper §2);
//
//  3. SUSC builds a valid program on the Theorem 3.1 minimum channels;
//
//  4. a simulated client population confirms nobody waits past their
//     stated tolerance.
//
//     go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"math/rand"

	"tcsa"
	"tcsa/internal/chaos"
	"tcsa/internal/core"
	"tcsa/internal/estimator"
	"tcsa/internal/workload"
)

const instruments = 60

func main() {
	// Ground truth: each instrument's true client tolerance in slots.
	// Hot stocks (low IDs) are tight; the tail is relaxed.
	rng := rand.New(rand.NewSource(2026))
	truth := make([]float64, instruments)
	for i := range truth {
		switch {
		case i < 10:
			truth[i] = 3 + rng.Float64()*3 // 3-6 slots
		case i < 35:
			truth[i] = 8 + rng.Float64()*10 // 8-18
		default:
			truth[i] = 30 + rng.Float64()*40 // 30-70
		}
	}

	// Step 1-2: piggybacked reports (noisy: clients report >= their real
	// need) feed the conservative estimator.
	agg, err := estimator.NewAggregator(instruments, estimator.Config{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < 20000; r++ {
		page := core.PageID(rng.Intn(instruments))
		slack := 1 + rng.Float64()*0.5 // clients overstate tolerance a bit
		if err := agg.Report(page, truth[page]*slack); err != nil {
			log.Fatal(err)
		}
	}
	re, err := agg.Groups(2, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated groups: %v\n", re.Set)

	// Step 3: schedule on the proven minimum number of channels.
	sched, err := tcsa.Build(re.Set, tcsa.MinChannels(re.Set))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler: %s over %d channels, cycle %d slots, valid=%v\n",
		sched.Algorithm, sched.Channels, sched.Program.Length(), sched.Valid())

	// Step 4: drive a client population through the event simulator and
	// check waits against each instrument's TRUE tolerance.
	reqs, err := workload.GenerateRequests(re.Set, sched.Program.Length(), workload.RequestConfig{
		Count: 5000,
		Seed:  11,
	})
	if err != nil {
		log.Fatal(err)
	}
	outcome, err := chaos.Replay(sched.Program, reqs, chaos.ReplayConfig{Mode: chaos.ScheduleAware})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d quote requests: avg wait %.2f slots, p99 %.2f\n",
		outcome.Served, outcome.AvgWait, outcome.Wait.P99)
	if outcome.AvgDelay == 0 {
		fmt.Println("no client waited beyond its scheduled expected time")
	}

	// Cross-check against ground truth (IDs were remapped by rearrangement).
	// Worst-case wait = the page's maximum appearance gap; the program
	// guarantees it is <= the rearranged time <= the estimate <= truth.
	a := tcsa.Analyze(sched.Program)
	violations := 0
	for orig := 0; orig < instruments; orig++ {
		if float64(a.WorstGap(re.IDs[orig])) > truth[orig] {
			violations++
		}
	}
	fmt.Printf("instruments whose true tolerance could ever be exceeded: %d of %d\n",
		violations, instruments)
}
