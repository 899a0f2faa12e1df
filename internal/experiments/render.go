package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"tcsa/internal/workload"
)

// Table renders a Figure 5 series as an aligned text table, one row per
// channel count — the textual equivalent of one subplot.
func (s *Fig5Series) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — AvgD vs channels, %v distribution (n=%d pages, N_min=%d)\n",
		s.Dist, s.Set.Pages(), s.MinChannels)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "channels\tPAMAD\tm-PB\tOPT\tPAMAD(exact)\tm-PB(exact)\tOPT(exact)\t")
	for _, pt := range s.Points {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
			pt.Channels, pt.PAMAD, pt.MPB, pt.OPT, pt.PAMADExact, pt.MPBExact, pt.OPTExact)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// CSV renders the series as comma-separated values with a header row.
func (s *Fig5Series) CSV() string {
	var b strings.Builder
	b.WriteString("distribution,channels,pamad,mpb,opt,pamad_exact,mpb_exact,opt_exact\n")
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%v,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			s.Dist, pt.Channels, pt.PAMAD, pt.MPB, pt.OPT, pt.PAMADExact, pt.MPBExact, pt.OPTExact)
	}
	return b.String()
}

// RenderFigure3 renders the group-size distribution table.
func RenderFigure3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3 — group size distributions\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(w, "distribution\t")
	if len(rows) > 0 {
		for i := range rows[0].Counts {
			fmt.Fprintf(w, "G%d\t", i+1)
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t", r.Dist)
		for _, c := range r.Counts {
			fmt.Fprintf(w, "%d\t", c)
		}
		fmt.Fprintln(w)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// RenderFigure4 renders the parameter table.
func RenderFigure4(p Params) string {
	var b strings.Builder
	b.WriteString("Figure 4 — parameter settings\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "n - total number\t%d\n", p.Pages)
	fmt.Fprintf(w, "h - number of groups\t%d\n", p.Groups)
	times := make([]string, p.Groups)
	t := workload.PaperBaseTime
	for i := range times {
		times[i] = fmt.Sprint(t)
		t *= workload.PaperRatio
	}
	fmt.Fprintf(w, "t_i - expected time\t%s\n", strings.Join(times, ", "))
	fmt.Fprintf(w, "group size distributions\t{normal, L-skewed, S-skewed, uniform}\n")
	fmt.Fprintf(w, "number of requests\t%d\n", p.Requests)
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// RenderKnee renders the knee analysis for several series.
func RenderKnee(results []*KneeResult) string {
	var b strings.Builder
	b.WriteString("Observation 3 — delay knee vs the 1/5-of-minimum rule\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "distribution\tN_min\tAvgD@1\tknee(AvgD<=thr)\tN_min/5\tAvgD@N_min/5\t")
	for _, r := range results {
		fmt.Fprintf(w, "%v\t%d\t%.2f\t%d\t%d\t%.3f\t\n",
			r.Dist, r.MinChannels, r.DelayAtOne, r.Knee, r.FifthOfMin, r.DelayAtFifth)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// RenderTieBreak renders the tie-break ablation sweep.
func RenderTieBreak(dist fmt.Stringer, pts []TiePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A1 — Algorithm 3 tie-break policies, %v distribution\n", dist)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "channels\ttoward-ratio\tsmallest-r\ttoward(D')\tsmallest(D')\t")
	for _, pt := range pts {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
			pt.Channels, pt.TowardRatio, pt.SmallestR, pt.TowardModel, pt.SmallestModel)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// RenderModelCheck renders the model-vs-measurement ablation sweep.
func RenderModelCheck(dist fmt.Stringer, pts []ModelPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3 — delay models vs measurement (PAMAD), %v distribution\n", dist)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "channels\tD'(heuristic)\tideal-spacing\texact(program)\tmeasured\t")
	for _, pt := range pts {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\t%.3f\t\n",
			pt.Channels, pt.Heuristic, pt.Ideal, pt.Exact, pt.Measured)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// RenderOptPrune renders the OPT pruning ablation sweep.
func RenderOptPrune(dist fmt.Stringer, pts []OptPruneStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — OPT branch-and-bound vs exhaustive scan, %v distribution (identical results)\n", dist)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "channels\tD'\texhaustive evals\tpruned evals\treduction\t")
	for _, pt := range pts {
		fmt.Fprintf(w, "%d\t%.3f\t%d\t%d\t%.0fx\t\n",
			pt.Channels, pt.Delay, pt.Exhaustive, pt.Pruned, pt.Reduction)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}

// RenderOptGap renders the greedy-vs-exhaustive gap summaries.
func RenderOptGap(gaps []*OptGap) string {
	var b strings.Builder
	b.WriteString("Ablation A1 — PAMAD vs OPT exact program-delay gap\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "distribution\tmax gap (slots)\tmean gap\tmax rel gap\tworst at channels\t")
	for _, g := range gaps {
		fmt.Fprintf(w, "%v\t%.4f\t%.4f\t%.1f%%\t%d\t\n",
			g.Dist, g.MaxAbsGap, g.MeanAbsGap, 100*g.MaxRelGap, g.WorstChannel)
	}
	_ = w.Flush() // cannot fail: flushes into the in-memory builder
	return b.String()
}
