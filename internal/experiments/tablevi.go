package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/attacks"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// ApproachResult is one cell group of Table VI.
type ApproachResult struct {
	Approach string
	Scores   metrics.Scores
	// AvgSeconds is the mean per-sample detection cost (collection +
	// modeling/feature extraction + classification), feeding the
	// Section V time-cost discussion.
	AvgSeconds float64
	Confusion  *metrics.Confusion
}

// TaskResult is one task column group of Table VI.
type TaskResult struct {
	Task    string
	Results []ApproachResult
}

// task describes one evaluation of Section IV-D.
type task struct {
	id    string
	known []attacks.Family
	// cv: E1 uses k-fold cross validation over test (train is ignored).
	cv    bool
	train []*Prepared
	test  []*Prepared
	// truthOf maps a sample's label to the expected prediction
	// (e.g. E2: S-FR samples must be recognized as FR-F).
	truthOf map[attacks.Family]attacks.Family
}

func (t *task) truth(s *Prepared) string {
	if m, ok := t.truthOf[s.Label]; ok {
		return string(m)
	}
	return string(s.Label)
}

// TableVI runs E1-E4 for the five approaches.
func TableVI(config Config) ([]TaskResult, error) {
	config = config.withDefaults()

	plain, err := dataset.Standard(dataset.Config{PerClass: config.PerClass, Seed: config.Seed})
	if err != nil {
		return nil, err
	}
	prepared, err := prepare(plain.Samples, config)
	if err != nil {
		return nil, err
	}
	byLabel := make(map[attacks.Family][]*Prepared)
	for _, p := range prepared {
		byLabel[p.Label] = append(byLabel[p.Label], p)
	}
	// Obfuscated corpora for E4 (FR and PP, as in the paper).
	var obfuscated []*Prepared
	for i, fam := range []attacks.Family{attacks.FamilyFR, attacks.FamilyPP} {
		samples, err := dataset.AttackSamples(fam, config.PerClass, config.Seed+5000+int64(i), true)
		if err != nil {
			return nil, err
		}
		prep, err := prepare(samples, config)
		if err != nil {
			return nil, err
		}
		obfuscated = append(obfuscated, prep...)
	}

	benignAll := byLabel[attacks.FamilyBenign]
	benignTrain := make([]*Prepared, 0, len(benignAll)/2)
	benignTest := make([]*Prepared, 0, len(benignAll)/2)
	for i, p := range benignAll {
		if i%2 == 0 {
			benignTrain = append(benignTrain, p)
		} else {
			benignTest = append(benignTest, p)
		}
	}
	concat := func(groups ...[]*Prepared) []*Prepared {
		var out []*Prepared
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}

	all := attacks.Families()
	tasks := []*task{
		{
			id:    "E1",
			known: all,
			cv:    true,
			test:  prepared,
		},
		{
			id:    "E2",
			known: []attacks.Family{attacks.FamilyFR, attacks.FamilyPP},
			train: concat(byLabel[attacks.FamilyFR], byLabel[attacks.FamilyPP], benignTrain),
			test:  concat(byLabel[attacks.FamilySFR], byLabel[attacks.FamilySPP], benignTest),
			truthOf: map[attacks.Family]attacks.Family{
				attacks.FamilySFR: attacks.FamilyFR,
				attacks.FamilySPP: attacks.FamilyPP,
			},
		},
		{
			id:    "E3-1",
			known: []attacks.Family{attacks.FamilyFR},
			train: concat(byLabel[attacks.FamilyFR], benignTrain),
			test:  concat(byLabel[attacks.FamilyPP], benignTest),
			truthOf: map[attacks.Family]attacks.Family{
				attacks.FamilyPP: attacks.FamilyFR,
			},
		},
		{
			id:    "E3-2",
			known: []attacks.Family{attacks.FamilyPP},
			train: concat(byLabel[attacks.FamilyPP], benignTrain),
			test:  concat(byLabel[attacks.FamilyFR], benignTest),
			truthOf: map[attacks.Family]attacks.Family{
				attacks.FamilyFR: attacks.FamilyPP,
			},
		},
		{
			id:    "E4",
			known: all,
			train: concat(byLabel[attacks.FamilyFR], byLabel[attacks.FamilyPP],
				byLabel[attacks.FamilySFR], byLabel[attacks.FamilySPP], benignTrain),
			test: concat(obfuscated, benignTest),
		},
	}

	var out []TaskResult
	for _, t := range tasks {
		res, err := runTask(t, config)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// runTask evaluates every approach on one task.
func runTask(t *task, config Config) (TaskResult, error) {
	result := TaskResult{Task: t.id}

	// --- learning baselines ---------------------------------------------
	type learner struct {
		name  string
		feats func(*Prepared) []float64
		train func([]baseline.Example) (baseline.Classifier, error)
	}
	learners := []learner{
		{"SVM-NW", func(p *Prepared) []float64 { return p.WinFeat },
			func(ex []baseline.Example) (baseline.Classifier, error) {
				return baseline.TrainSVM(ex, baseline.DefaultSVMConfig())
			}},
		{"LR-NW", func(p *Prepared) []float64 { return p.WinFeat },
			func(ex []baseline.Example) (baseline.Classifier, error) {
				return baseline.TrainLR(ex, baseline.DefaultLRConfig())
			}},
		{"KNN-MLFM", func(p *Prepared) []float64 { return p.LoopFeat },
			func(ex []baseline.Example) (baseline.Classifier, error) {
				return baseline.TrainKNN(ex, baseline.DefaultKNNConfig())
			}},
	}
	for _, l := range learners {
		conf := metrics.NewConfusion()
		var detectSeconds float64
		classify := func(c baseline.Classifier, samples []*Prepared) {
			for _, p := range samples {
				start := time.Now()
				pred := c.Predict(l.feats(p))
				detectSeconds += time.Since(start).Seconds() + p.PrepSeconds
				conf.Add(t.truth(p), pred)
			}
		}
		if t.cv {
			folds := metrics.KFold(len(t.test), config.Folds, config.Seed)
			for _, fold := range folds {
				trainIdx, testIdx := fold[0], fold[1]
				if len(trainIdx) == 0 {
					continue
				}
				var ex []baseline.Example
				for _, i := range trainIdx {
					ex = append(ex, baseline.Example{X: l.feats(t.test[i]), Label: t.truth(t.test[i])})
				}
				c, err := l.train(ex)
				if err != nil {
					return result, fmt.Errorf("%s/%s: %w", t.id, l.name, err)
				}
				var testSamples []*Prepared
				for _, i := range testIdx {
					testSamples = append(testSamples, t.test[i])
				}
				classify(c, testSamples)
			}
		} else {
			var ex []baseline.Example
			for _, p := range t.train {
				// The learners train on the defender's raw labels; the
				// truth mapping only re-labels test-time expectations.
				ex = append(ex, baseline.Example{X: l.feats(p), Label: string(p.Label)})
			}
			c, err := l.train(ex)
			if err != nil {
				return result, fmt.Errorf("%s/%s: %w", t.id, l.name, err)
			}
			classify(c, t.test)
		}
		result.Results = append(result.Results, ApproachResult{
			Approach:   l.name,
			Scores:     conf.Macro(),
			AvgSeconds: detectSeconds / float64(conf.Total()),
			Confusion:  conf,
		})
	}

	// --- SCADET -----------------------------------------------------------
	{
		conf := metrics.NewConfusion()
		ppKnown := false
		for _, f := range t.known {
			if f == attacks.FamilyPP {
				ppKnown = true
			}
		}
		scadet := baseline.NewSCADET()
		var detectSeconds float64
		for _, p := range t.test {
			start := time.Now()
			pred := scadet.BenignLabel
			if ppKnown {
				pred = scadet.Detect(p.SetTrace, p.Program)
			}
			detectSeconds += time.Since(start).Seconds() + p.PrepSeconds
			conf.Add(t.truth(p), pred)
		}
		result.Results = append(result.Results, ApproachResult{
			Approach:   "SCADET",
			Scores:     conf.Macro(),
			AvgSeconds: detectSeconds / float64(conf.Total()),
			Confusion:  conf,
		})
	}

	// --- SCAGuard ----------------------------------------------------------
	{
		repo, err := buildRepo(t.known, config)
		if err != nil {
			return result, err
		}
		conf := metrics.NewConfusion()
		var detectSeconds float64
		for _, p := range t.test {
			start := time.Now()
			pred := classifySCAGuard(repo, p, config.Threshold)
			detectSeconds += time.Since(start).Seconds() + p.PrepSeconds
			conf.Add(t.truth(p), string(pred))
		}
		result.Results = append(result.Results, ApproachResult{
			Approach:   "SCAGUARD",
			Scores:     conf.Macro(),
			AvgSeconds: detectSeconds / float64(conf.Total()),
			Confusion:  conf,
		})
	}
	return result, nil
}

// FormatTableVI renders the task results like the paper's Table VI.
func FormatTableVI(results []TaskResult) string {
	var b strings.Builder
	for _, tr := range results {
		fmt.Fprintf(&b, "== %s ==\n", tr.Task)
		fmt.Fprintf(&b, "%-10s %10s %10s %10s %12s\n", "Approach", "Precision", "Recall", "F1-score", "AvgDetect(s)")
		for _, r := range tr.Results {
			fmt.Fprintf(&b, "%-10s %9.2f%% %9.2f%% %9.2f%% %12.4f\n",
				r.Approach, r.Scores.Precision*100, r.Scores.Recall*100, r.Scores.F1*100, r.AvgSeconds)
		}
	}
	return b.String()
}
