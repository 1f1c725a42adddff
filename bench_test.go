package scaguard

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTableIV        — attack-relevant BB identification accuracy
//	BenchmarkTableV         — similarity of the five scenarios S1-S5
//	BenchmarkTableVI_E*     — classification P/R/F1 of all 5 approaches
//	BenchmarkFig5           — threshold sweep plateau
//	BenchmarkDetectionCost* — per-approach detection cost (Section V)
//	BenchmarkAblation*      — design-choice ablations from DESIGN.md §5
//
// Quality numbers are attached to each benchmark via b.ReportMetric, so
// a single -bench run prints both performance and reproduction metrics.
// Scale the corpora with -scaguard.perclass (default 12; the paper uses
// 400).

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/similarity"
)

var benchPerClass = flag.Int("scaguard.perclass", 12, "samples per class for Table VI / Fig 5 benchmarks")

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.PerClass = *benchPerClass
	cfg.Folds = 5
	return cfg
}

// BenchmarkTableIV regenerates Table IV and reports the average
// identification accuracy and the block-reduction ratio.
func BenchmarkTableIV(b *testing.B) {
	var rows []experiments.TableIVRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIV(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := rows[len(rows)-1]
	_, _, reduction := experiments.ReductionStats(rows)
	b.ReportMetric(avg.Accuracy*100, "accuracy_%")
	b.ReportMetric(reduction*100, "reduction_%")
	if b.N == 1 {
		b.Logf("\n%s", experiments.FormatTableIV(rows))
	}
}

// BenchmarkTableV regenerates the five similarity scenarios.
func BenchmarkTableV(b *testing.B) {
	var rows []experiments.TableVRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableV(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Score*100, r.No+"_%")
	}
	if b.N == 1 {
		b.Logf("\n%s", experiments.FormatTableV(rows))
	}
}

// tableVI runs the full Table VI once per benchmark iteration and
// reports the named task's SCAGuard and best-baseline F1.
func benchTableVITask(b *testing.B, task string) {
	var results []experiments.TaskResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.TableVI(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, tr := range results {
		if tr.Task != task {
			continue
		}
		bestBaseline := 0.0
		for _, r := range tr.Results {
			switch r.Approach {
			case "SCAGUARD":
				b.ReportMetric(r.Scores.Precision*100, "scaguard_P_%")
				b.ReportMetric(r.Scores.Recall*100, "scaguard_R_%")
				b.ReportMetric(r.Scores.F1*100, "scaguard_F1_%")
			default:
				if r.Scores.F1 > bestBaseline {
					bestBaseline = r.Scores.F1
				}
			}
		}
		b.ReportMetric(bestBaseline*100, "best_baseline_F1_%")
		if b.N == 1 {
			b.Logf("\n%s", experiments.FormatTableVI([]experiments.TaskResult{tr}))
		}
	}
}

// BenchmarkTableVI_E1 — classification of mutated variants.
func BenchmarkTableVI_E1(b *testing.B) { benchTableVITask(b, "E1") }

// BenchmarkTableVI_E2 — classification of Spectre-like variants.
func BenchmarkTableVI_E2(b *testing.B) { benchTableVITask(b, "E2") }

// BenchmarkTableVI_E3_1 — generalizability: PP known only through FR.
func BenchmarkTableVI_E3_1(b *testing.B) { benchTableVITask(b, "E3-1") }

// BenchmarkTableVI_E3_2 — generalizability: FR known only through PP.
func BenchmarkTableVI_E3_2(b *testing.B) { benchTableVITask(b, "E3-2") }

// BenchmarkTableVI_E4 — robustness against obfuscated variants.
func BenchmarkTableVI_E4(b *testing.B) { benchTableVITask(b, "E4") }

// BenchmarkFig5 regenerates the threshold sweep and reports the plateau.
func BenchmarkFig5(b *testing.B) {
	var points []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig5(benchConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi, ok := experiments.PlateauRange(points, 0.80)
	if ok {
		b.ReportMetric(lo*100, "plateau_lo_%")
		b.ReportMetric(hi*100, "plateau_hi_%")
	}
	if b.N == 1 {
		b.Logf("\n%s", experiments.FormatFig5(points))
	}
}

// BenchmarkDetectionCostSCAGuard measures one full SCAGuard detection
// (trace collection + modeling + repository comparison), the quantity
// of Section V's time-cost discussion.
func BenchmarkDetectionCostSCAGuard(b *testing.B) {
	det, err := NewDetector()
	if err != nil {
		b.Fatal(err)
	}
	poc := MustAttack("FR-Mastik")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Classify(poc.Program, poc.Victim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionCostModelOnly isolates the modeling stage.
func BenchmarkDetectionCostModelOnly(b *testing.B) {
	poc := MustAttack("FR-Mastik")
	for i := 0; i < b.N; i++ {
		if _, err := BuildModel(poc.Program, poc.Victim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityDTW isolates the CST-BBS comparison.
func BenchmarkSimilarityDTW(b *testing.B) {
	a := MustAttack("FR-IAIK")
	c := MustAttack("PP-IAIK")
	ma, err := BuildModel(a.Program, a.Victim)
	if err != nil {
		b.Fatal(err)
	}
	mc, err := BuildModel(c.Program, c.Victim)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(ma.BBS, mc.BBS)
	}
}

// --- ablations (DESIGN.md §5) --------------------------------------------

// ablationGap reports how much a similarity configuration separates a
// true variant pair from an attack/benign pair: gap = variantScore -
// benignScore. Bigger is better; the ablations show each design choice's
// contribution.
func ablationGap(b *testing.B, opts similarity.Options, frBBS, variantBBS, benignBBS *model.CSTBBS) {
	var variant, benignScore float64
	for i := 0; i < b.N; i++ {
		variant = similarity.Score(frBBS, variantBBS, opts)
		benignScore = similarity.Score(frBBS, benignBBS, opts)
	}
	b.ReportMetric(variant*100, "variant_%")
	b.ReportMetric(benignScore*100, "benign_%")
	b.ReportMetric((variant-benignScore)*100, "gap_%")
}

func ablationModels(b *testing.B) (fr, variant, ben *model.CSTBBS) {
	b.Helper()
	a := MustAttack("FR-IAIK")
	v := MustAttack("ER-IAIK")
	ma, err := BuildModel(a.Program, a.Victim)
	if err != nil {
		b.Fatal(err)
	}
	mv, err := BuildModel(v.Program, v.Victim)
	if err != nil {
		b.Fatal(err)
	}
	bp, err := GenerateBenign("crypto", "aes-ttable", 1)
	if err != nil {
		b.Fatal(err)
	}
	mb, err := BuildModel(bp, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ma.BBS, mv.BBS, mb.BBS
}

// BenchmarkAblationFull is the reference configuration.
func BenchmarkAblationFull(b *testing.B) {
	fr, v, ben := ablationModels(b)
	b.ResetTimer()
	ablationGap(b, similarity.DefaultOptions(), fr, v, ben)
}

// BenchmarkAblationNoCST removes the cache-state term: similarity from
// syntax alone (shows why CST enhancement matters).
func BenchmarkAblationNoCST(b *testing.B) {
	fr, v, ben := ablationModels(b)
	b.ResetTimer()
	ablationGap(b, similarity.Options{ISWeight: 1, CSPWeight: 1e-9}, fr, v, ben)
}

// BenchmarkAblationNoIS removes the instruction term: similarity from
// cache semantics alone.
func BenchmarkAblationNoIS(b *testing.B) {
	fr, v, ben := ablationModels(b)
	b.ResetTimer()
	ablationGap(b, similarity.Options{ISWeight: 1e-9, CSPWeight: 1}, fr, v, ben)
}

// BenchmarkAblationNoReduction compares whole-CFG models (every block
// with any trace activity, no attack-relevant filtering) — the paper's
// argument for the reduction pipeline.
func BenchmarkAblationNoReduction(b *testing.B) {
	buildFull := func(name string) *model.CSTBBS {
		poc, err := Attack(name)
		if err != nil {
			b.Fatal(err)
		}
		m, err := BuildModel(poc.Program, poc.Victim)
		if err != nil {
			b.Fatal(err)
		}
		return m.BBS
	}
	fr := buildFull("FR-IAIK")
	pp := buildFull("PP-IAIK")
	var reduced float64
	for i := 0; i < b.N; i++ {
		reduced = similarity.Score(fr, pp, similarity.DefaultOptions())
	}
	// The reduced models keep families separable; report the
	// cross-family score that the classifier must stay below the
	// within-family scores.
	b.ReportMetric(reduced*100, "cross_family_%")
	b.ReportMetric(float64(fr.Len()), "fr_model_blocks")
	b.ReportMetric(float64(pp.Len()), "pp_model_blocks")
}

// BenchmarkAblationNoNormalization compares raw (non-normalized)
// instruction text, i.e. without the imm/mem/reg rewrite. Mutated
// variants then look dissimilar although their behavior is identical.
func BenchmarkAblationNoNormalization(b *testing.B) {
	poc := MustAttack("FR-IAIK")
	mut, err := MutateVariant(poc.Program, 3)
	if err != nil {
		b.Fatal(err)
	}
	orig, err := BuildModel(poc.Program, poc.Victim)
	if err != nil {
		b.Fatal(err)
	}
	variant, err := BuildModel(mut, poc.Victim)
	if err != nil {
		b.Fatal(err)
	}
	// Raw text: substitute each normalized token sequence with the raw
	// disassembly of the blocks.
	raw := func(m *model.Model) *model.CSTBBS {
		out := &model.CSTBBS{Name: m.Name + "-raw"}
		for _, c := range m.BBS.Seq {
			cc := c
			bb, ok := m.CFG.Block(c.Leader)
			if ok {
				var rawSeq []string
				for _, in := range bb.Insns {
					rawSeq = append(rawSeq, in.String())
				}
				cc.NormInsns = rawSeq
			}
			out.Seq = append(out.Seq, cc)
		}
		return out
	}
	var normScore, rawScore float64
	for i := 0; i < b.N; i++ {
		normScore = similarity.Score(orig.BBS, variant.BBS, similarity.DefaultOptions())
		rawScore = similarity.Score(raw(orig), raw(variant), similarity.DefaultOptions())
	}
	b.ReportMetric(normScore*100, "normalized_%")
	b.ReportMetric(rawScore*100, "raw_%")
	b.ReportMetric((normScore-rawScore)*100, "gain_%")
}

// BenchmarkAblationNaiveUnion replaces Algorithm 1's MST construction
// with the naive union of all relevant blocks (no path restoration),
// reporting the resulting model-size difference.
func BenchmarkAblationNaiveUnion(b *testing.B) {
	poc := MustAttack("FR-IAIK")
	var withMST, naive int
	for i := 0; i < b.N; i++ {
		m, err := BuildModel(poc.Program, poc.Victim)
		if err != nil {
			b.Fatal(err)
		}
		withMST = len(m.IdentifiedBBs())
		naive = len(m.RelevantBBs)
	}
	b.ReportMetric(float64(withMST), "mst_blocks")
	b.ReportMetric(float64(naive), "naive_blocks")
}

// scanCorpus builds a realistically sized repository (every canonical
// PoC plus mutated variants) and a set of distinct scan targets.
func scanCorpus(b *testing.B) (entries, targets []*model.CSTBBS) {
	b.Helper()
	build := func(prog, victim *Program) *model.CSTBBS {
		m, err := BuildModel(prog, victim)
		if err != nil {
			b.Fatal(err)
		}
		return m.BBS
	}
	for _, name := range AttackNames() {
		poc := MustAttack(name)
		entries = append(entries, build(poc.Program, poc.Victim))
		for seed := int64(0); seed < 2; seed++ {
			mut, err := MutateVariant(poc.Program, seed)
			if err != nil {
				b.Fatal(err)
			}
			entries = append(entries, build(mut, poc.Victim))
		}
	}
	for _, name := range []string{"FR-Mastik", "ER-IAIK", "PP-Jzhang", "S-FR-Good"} {
		poc := MustAttack(name)
		mut, err := MutateVariant(poc.Program, 7)
		if err != nil {
			b.Fatal(err)
		}
		targets = append(targets, build(mut, poc.Victim))
	}
	return entries, targets
}

// BenchmarkRepositoryScan measures one full repository scan per
// iteration — the similarity-comparison stage that dominates detection
// latency (Section V) — under the three engine configurations:
//
//	Serial   — the reference loop (similarity.Score per entry)
//	Engine   — exact scan: worker pool + memoized Levenshtein + O(m) DTW
//	Cascade  — the pruned (-fast) scan: Engine plus the lower-bound
//	           cascade and early abandoning
//
// Targets round-robin across distinct models so the cache is exercised
// the way a deployment stream exercises it (recurring blocks, varying
// targets). The measured speedups are recorded in docs/PERFORMANCE.md.
func BenchmarkRepositoryScan(b *testing.B) {
	entries, targets := scanCorpus(b)
	run := func(b *testing.B, scanOne func(eng *scan.Engine, t *model.CSTBBS)) {
		eng := scan.New(entries, scan.Config{Sim: similarity.DefaultOptions()})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scanOne(eng, targets[i%len(targets)])
		}
		b.ReportMetric(float64(len(entries)), "entries")
	}
	b.Run("Serial", func(b *testing.B) {
		run(b, func(eng *scan.Engine, t *model.CSTBBS) { eng.ScanSerial(t) })
	})
	b.Run("Engine", func(b *testing.B) {
		run(b, func(eng *scan.Engine, t *model.CSTBBS) { eng.Scan(t) })
	})
	b.Run("Cascade", func(b *testing.B) {
		eng := scan.New(entries, scan.Config{Prune: true, Sim: similarity.DefaultOptions()})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Scan(targets[i%len(targets)])
		}
		b.ReportMetric(float64(len(entries)), "entries")
	})
}

// BenchmarkTelemetryOverhead measures the cost of instrumentation on
// the pruned repository scan — the hottest instrumented path. "Off" is
// the nil-collector fast path every production scan without -stats
// takes; "On" attaches a live collector. The acceptance bar is an
// Off-vs-baseline regression under 2%; Off and On should also be close,
// since the per-entry work is a handful of uncontended atomic adds.
func BenchmarkTelemetryOverhead(b *testing.B) {
	entries, targets := scanCorpus(b)
	run := func(b *testing.B, tel *Telemetry) {
		eng := scan.New(entries, scan.Config{
			Prune:     true,
			Sim:       similarity.DefaultOptions(),
			Telemetry: tel,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Scan(targets[i%len(targets)])
		}
	}
	b.Run("Off", func(b *testing.B) { run(b, nil) })
	b.Run("On", func(b *testing.B) { run(b, NewTelemetry()) })
}

// BenchmarkEndToEndAttack measures a full simulated Flush+Reload attack
// run (the substrate's speed).
func BenchmarkEndToEndAttack(b *testing.B) {
	poc := MustAttack("FR-IAIK")
	for i := 0; i < b.N; i++ {
		if _, err := BuildModel(poc.Program, poc.Victim); err != nil {
			b.Fatal(err)
		}
	}
}

// Example of the one-call API.
func Example() {
	det, err := NewDetector()
	if err != nil {
		panic(err)
	}
	poc := MustAttack("ER-IAIK") // a variant outside the repository
	res, _, err := det.Classify(poc.Program, poc.Victim)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Predicted)
	// Output: FR-F
}
