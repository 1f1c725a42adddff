// Package experiments reproduces every table and figure of the paper's
// evaluation (Section IV): Table IV (attack-relevant BB identification),
// Table V (similarity of five scenarios), Table VI (classification
// results of SCAGuard and the four baselines on tasks E1-E4) and Fig. 5
// (threshold sweep). Each runner is deterministic under its Config.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/attacks"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/similarity"
)

// Config scales and seeds the experiments.
type Config struct {
	// PerClass is the number of samples per class (the paper uses 400;
	// tests and quick benchmarks use far less).
	PerClass int
	// Seed drives dataset generation.
	Seed int64
	// Folds is the cross-validation fold count for the learners
	// (paper: 10).
	Folds int
	// Model configures SCAGuard's behavior modeling.
	Model model.Config
	// Threshold is SCAGuard's similarity threshold.
	Threshold float64
	// MaxRetired caps each sample's simulation.
	MaxRetired uint64
	// Noise, when set, runs as an additional co-tenant process beside
	// every target during collection (the noise-robustness experiment);
	// repository models are always built without it.
	Noise *isa.Program
}

// DefaultConfig returns a laptop-scale configuration; raise PerClass to
// 400 for the paper-scale run.
func DefaultConfig() Config {
	return Config{
		PerClass:   24,
		Seed:       1,
		Folds:      10,
		Model:      model.DefaultConfig(),
		Threshold:  detect.DefaultThreshold,
		MaxRetired: 400_000,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.PerClass <= 0 {
		c.PerClass = d.PerClass
	}
	if c.Folds <= 1 {
		c.Folds = d.Folds
	}
	if c.Threshold == 0 {
		c.Threshold = d.Threshold
	}
	if c.MaxRetired == 0 {
		c.MaxRetired = d.MaxRetired
	}
	if c.Model.MaxWeight == 0 {
		c.Model = model.DefaultConfig()
	}
	return c
}

// Prepared is one corpus sample with everything the approaches consume:
// SCAGuard's behavior model, SCADET's cache-set trace and the learners'
// feature vectors, all from one run.
type Prepared struct {
	dataset.Sample
	BBS      *model.CSTBBS
	SetTrace []baseline.SetAccess
	WinFeat  []float64
	LoopFeat []float64
	// PrepSeconds is the wall-clock cost of collection + modeling,
	// feeding the time-cost discussion of Section V.
	PrepSeconds float64
}

// prepare runs every sample once and extracts all artefacts.
func prepare(samples []dataset.Sample, cfg Config) ([]*Prepared, error) {
	llc := cfg.Model.Exec.Hierarchy.LLC
	if llc.Sets == 0 {
		llc = cache.DefaultHierarchyConfig().LLC
	}
	out := make([]*Prepared, 0, len(samples))
	for _, s := range samples {
		start := time.Now()
		execCfg := cfg.Model.Exec
		execCfg.MaxRetired = cfg.MaxRetired
		var others []*isa.Program
		if s.Victim != nil {
			others = append(others, s.Victim)
		}
		if cfg.Noise != nil {
			others = append(others, cfg.Noise)
		}
		machine, err := exec.NewMachineMulti(execCfg, s.Program, others...)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name, err)
		}
		rec := baseline.NewRecorder(machine.Hierarchy().LLC().Config())
		tr, err := machine.RunEvents(rec.Feed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name, err)
		}
		rec.Finish()
		m, err := model.BuildFromTrace(s.Program, tr, llc, cfg.Model)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name, err)
		}
		p := &Prepared{
			Sample:      s,
			BBS:         m.BBS,
			SetTrace:    rec.SetTrace,
			WinFeat:     baseline.WindowFeatures(rec.Windows, tr.Cycles),
			LoopFeat:    baseline.LoopFeatures(tr),
			PrepSeconds: time.Since(start).Seconds(),
		}
		machine.Release() // nothing in p refers to the trace
		out = append(out, p)
	}
	return out, nil
}

// buildRepo models one canonical PoC per known family — the paper's
// "only one PoC for each attack type" deployment.
func buildRepo(known []attacks.Family, cfg Config) (*detect.Repository, error) {
	repoPoC := map[attacks.Family]string{
		attacks.FamilyFR:  "FR-IAIK",
		attacks.FamilyPP:  "PP-IAIK",
		attacks.FamilySFR: "S-FR-Idea",
		attacks.FamilySPP: "S-PP-Trippel",
	}
	var pocs []attacks.PoC
	for _, fam := range known {
		name, ok := repoPoC[fam]
		if !ok {
			return nil, fmt.Errorf("experiments: no canonical PoC for family %q", fam)
		}
		poc, err := attacks.ByName(name, attacks.DefaultParams())
		if err != nil {
			return nil, err
		}
		pocs = append(pocs, poc)
	}
	return detect.BuildRepository(pocs, cfg.Model)
}

// classifySCAGuard scores one prepared sample against a repository.
func classifySCAGuard(repo *detect.Repository, p *Prepared, threshold float64) attacks.Family {
	d := detect.NewDetector(repo)
	d.Threshold = threshold
	d.SimOpts = similarity.DefaultOptions()
	return d.ClassifyBBS(p.BBS).Predicted
}
