// Impatience: the paper's §1 hybrid-system motivation, measured.
//
// "When the waiting time is longer than the expected time of a client, the
// client could switch the access from a broadcast channel to an on-demand
// channel ... Too often and too many such actions could seriously congest
// the on-demand channels."
//
// We build the same under-provisioned broadcast system twice — once
// scheduled with PAMAD, once with the m-PB baseline — and run the coupled
// hybrid simulation (internal/hybrid): impatient clients defect to the
// pull server after 1.5x their expected time. Because PAMAD keeps
// broadcast delays near the floor, it sheds far less load onto the uplink.
//
//	go run ./examples/impatience
package main

import (
	"fmt"
	"log"

	"tcsa/internal/core"
	"tcsa/internal/hybrid"
	"tcsa/internal/mpb"
	"tcsa/internal/ondemand"
	"tcsa/internal/pamad"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

func main() {
	gs, err := workload.GroupSet(workload.Uniform, 6, 300, 4, 2)
	if err != nil {
		log.Fatal(err)
	}
	// About a third of the Theorem 3.1 minimum: scarce, but past the knee
	// for PAMAD while m-PB still misses deadlines in volume.
	const channels = 8
	fmt.Printf("instance %v on %d channels (minimum %d)\n\n", gs, channels, gs.MinChannels())

	pamadProg, _, err := pamad.Build(gs, channels)
	if err != nil {
		log.Fatal(err)
	}
	mpbProg, _, err := mpb.Build(gs, channels)
	if err != nil {
		log.Fatal(err)
	}

	p := runHybrid(pamadProg, gs)
	m := runHybrid(mpbProg, gs)

	fmt.Printf("%-30s %12s %12s\n", "", "PAMAD", "m-PB")
	row := func(label, format string, a, b any) {
		fmt.Printf("%-30s %12s %12s\n", label, fmt.Sprintf(format, a), fmt.Sprintf(format, b))
	}
	row("served from broadcast", "%d", p.Air.Served, m.Air.Served)
	row("defected to on-demand", "%d", p.Air.Abandoned, m.Air.Abandoned)
	row("pull share", "%.1f%%", 100*p.PullShare, 100*m.PullShare)
	row("broadcast avg wait (slots)", "%.2f", p.Air.AvgWait, m.Air.AvgWait)
	row("pull avg response (slots)", "%.2f", p.Pull.AvgResponse, m.Pull.AvgResponse)
	row("pull p99 response (slots)", "%.2f", p.Pull.Response.P99, m.Pull.Response.P99)
	row("pull max queue length", "%d", p.Pull.MaxQueueLen, m.Pull.MaxQueueLen)
	row("pull deadline misses", "%d", p.Pull.DeadlineMisses, m.Pull.DeadlineMisses)
	row("end-to-end mean (slots)", "%.2f", p.EndToEnd.Mean, m.EndToEnd.Mean)
	row("end-to-end p99 (slots)", "%.2f", p.EndToEnd.P99, m.EndToEnd.P99)

	if p.Air.Abandoned < m.Air.Abandoned {
		fmt.Printf("\nPAMAD pushed %.1fx fewer clients onto the on-demand channel.\n",
			float64(m.Air.Abandoned)/float64(max(1, p.Air.Abandoned)))
	}
}

func runHybrid(prog *core.Program, gs *core.GroupSet) *hybrid.Report {
	reqs, err := workload.GenerateRequests(gs, prog.Length(), workload.RequestConfig{
		Count: 2000, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := hybrid.Run(prog, reqs, hybrid.Config{
		Air:  sim.Config{AbandonAfter: 1.5},
		Pull: ondemand.Config{ServiceTime: 3, Discipline: ondemand.EDF},
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}
