package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"tcsa/internal/chaos"
	"tcsa/internal/netcast"
	"tcsa/internal/sim"
	"tcsa/internal/workload"
)

// ConfigLabel is the filesystem-safe scenario label used as the result
// directory name: distribution, population, channel count (0 = knee
// default), and the headline fault knobs.
func ConfigLabel(cfg Config) string {
	return fmt.Sprintf("%s_n%d_c%d_loss%g_churn%g_seed%d",
		cfg.Dist, cfg.Clients, cfg.Channels, cfg.Fault.Loss, cfg.Fault.Churn, cfg.Seed)
}

// configView is the config.json schema: the scenario knobs with the
// distribution spelled out, so a results directory is reproducible from
// its own metadata.
type configView struct {
	Clients    int          `json:"clients"`
	Dist       string       `json:"dist"`
	Channels   int          `json:"channels"`
	Pages      int          `json:"pages"`
	Groups     int          `json:"groups"`
	BaseTime   int          `json:"base_time"`
	Ratio      int          `json:"ratio"`
	Seed       int64        `json:"seed"`
	PageChoice string       `json:"page_choice"`
	Theta      float64      `json:"theta,omitempty"`
	Fault      chaos.Config `json:"fault"`
}

// summaryView is the summary.json schema: the measured metrics plus the
// determinism fingerprint and the transport-side accounting.
type summaryView struct {
	Metrics       sim.Metrics        `json:"metrics"`
	Misses        int64              `json:"misses"`
	EffectiveLoss float64            `json:"effective_loss"`
	TraceDigest   string             `json:"trace_digest"`
	SlotsAired    int64              `json:"slots_aired"`
	Channels      int                `json:"channels"`
	CycleLen      int                `json:"cycle_len"`
	FaultStats    netcast.FaultStats `json:"fault_stats"`
	Replan        *chaos.Replan      `json:"replan,omitempty"`
}

// WriteResult persists one scenario's outcome under dir as the committed
// results schema: config.json (the scenario), summary.json (metrics +
// fingerprint), ledger.json (the fault ledger).
func WriteResult(dir string, cfg Config, res *Result) error {
	if res == nil {
		return fmt.Errorf("loadgen: nil result for %s", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pageChoice := "uniform"
	if cfg.PageChoice != 0 {
		pageChoice = "zipf"
	}
	files := map[string]any{
		"config.json": configView{
			Clients:    cfg.Clients,
			Dist:       cfg.Dist.String(),
			Channels:   cfg.Channels,
			Pages:      workload.PaperPages,
			Groups:     workload.PaperGroups,
			BaseTime:   workload.PaperBaseTime,
			Ratio:      workload.PaperRatio,
			Seed:       cfg.Seed,
			PageChoice: pageChoice,
			Theta:      cfg.Theta,
			Fault:      cfg.Fault,
		},
		"summary.json": summaryView{
			Metrics:       res.Metrics,
			Misses:        res.Misses,
			EffectiveLoss: res.EffectiveLoss,
			TraceDigest:   fmt.Sprintf("%016x", res.TraceDigest),
			SlotsAired:    res.SlotsAired,
			Channels:      res.Channels,
			CycleLen:      res.CycleLen,
			FaultStats:    res.FaultStats,
			Replan:        res.Result.Replan,
		},
		"ledger.json": res.Ledger,
	}
	for name, v := range files {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
