package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/attacks"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/similarity"
)

// TimeCost reproduces the Section V time-cost discussion: it breaks one
// SCAGuard detection into its stages and measures the per-sample cost of
// every approach over a small target set.
type TimeCost struct {
	// Stage breakdown of one SCAGuard detection (seconds).
	Collection float64 // trace collection (the simulator run)
	Modeling   float64 // CFG + relevance + Algorithm 1 + CST measurement
	Comparison float64 // DTW against the whole repository
	// Per-approach mean detection seconds over the target panel.
	PerApproach map[string]float64
	// Samples is the panel size.
	Samples int
}

// MeasureTimeCost runs the breakdown over every canonical PoC.
func MeasureTimeCost(config Config) (*TimeCost, error) {
	config = config.withDefaults()
	repo, err := buildRepo(attacks.Families(), config)
	if err != nil {
		return nil, err
	}
	llc := config.Model.Exec.Hierarchy.LLC
	if llc.Sets == 0 {
		llc = cache.DefaultHierarchyConfig().LLC
	}
	scadet := baseline.NewSCADET()

	tc := &TimeCost{PerApproach: make(map[string]float64)}
	pocs := attacks.All(attacks.DefaultParams())
	tc.Samples = len(pocs)
	var scadetTotal, mlTotal float64
	for _, poc := range pocs {
		// Stage 1: collection.
		start := time.Now()
		execCfg := config.Model.Exec
		execCfg.MaxRetired = config.MaxRetired
		machine, err := exec.NewMachine(execCfg, poc.Program, poc.Victim)
		if err != nil {
			return nil, err
		}
		rec := baseline.NewRecorder(machine.Hierarchy().LLC().Config())
		tr, err := machine.RunEvents(rec.Feed)
		if err != nil {
			return nil, err
		}
		rec.Finish()
		tc.Collection += time.Since(start).Seconds()

		// Stage 2: modeling.
		start = time.Now()
		m, err := model.BuildFromTrace(poc.Program, tr, llc, config.Model)
		if err != nil {
			return nil, err
		}
		tc.Modeling += time.Since(start).Seconds()

		// Stage 3: comparison against the repository.
		start = time.Now()
		for _, e := range repo.Entries {
			similarity.Score(m.BBS, e.BBS, similarity.DefaultOptions())
		}
		tc.Comparison += time.Since(start).Seconds()

		// Baselines over the shared trace.
		start = time.Now()
		scadet.Detect(rec.SetTrace, poc.Program)
		scadetTotal += time.Since(start).Seconds()

		start = time.Now()
		baseline.WindowFeatures(rec.Windows, tr.Cycles)
		baseline.LoopFeatures(tr)
		mlTotal += time.Since(start).Seconds()
		machine.Release()
	}
	n := float64(tc.Samples)
	tc.Collection /= n
	tc.Modeling /= n
	tc.Comparison /= n
	tc.PerApproach["SCAGUARD"] = tc.Collection + tc.Modeling + tc.Comparison
	tc.PerApproach["SCADET"] = tc.Collection + scadetTotal/n
	tc.PerApproach["NW/MLFM feature extraction"] = tc.Collection + mlTotal/n
	return tc, nil
}

// Format renders the breakdown like the Section V discussion.
func (tc *TimeCost) Format() string {
	var b strings.Builder
	total := tc.Collection + tc.Modeling + tc.Comparison
	fmt.Fprintf(&b, "SCAGuard per-sample detection cost (mean over %d PoCs):\n", tc.Samples)
	fmt.Fprintf(&b, "  collection:  %8.4fs (%5.1f%%)\n", tc.Collection, pct(tc.Collection, total))
	fmt.Fprintf(&b, "  modeling:    %8.4fs (%5.1f%%)\n", tc.Modeling, pct(tc.Modeling, total))
	fmt.Fprintf(&b, "  comparison:  %8.4fs (%5.1f%%)\n", tc.Comparison, pct(tc.Comparison, total))
	fmt.Fprintf(&b, "per-approach totals:\n")
	for _, name := range []string{"SCAGUARD", "SCADET", "NW/MLFM feature extraction"} {
		fmt.Fprintf(&b, "  %-28s %8.4fs\n", name, tc.PerApproach[name])
	}
	return b.String()
}

func pct(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total * 100
}
