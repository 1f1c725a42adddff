package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/attacks"
	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/scan"
	"repro/internal/telemetry"
	"repro/internal/vcache"
	"repro/internal/window"
)

// options are one run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // traced runs: where to write the spans
	sizes
}

func (o options) dur(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// report is one run's outcome: the end-to-end metrics always, the
// per-layer metrics in traced runs.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"latency_samples"`
	Metrics   map[string]value `json:"metrics"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Problems  []string         `json:"problems,omitempty"`
}

// maxProblems bounds how many failures a report describes; Failed
// still counts them all.
const maxProblems = 20

func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// target is one input of a closed-loop workload.
type target struct {
	name   string
	label  attacks.Family
	prog   *isa.Program
	victim *isa.Program
	bbs    *model.CSTBBS // rescan: the model scored directly
}

func sampleTargets(ss []dataset.Sample) []target {
	ts := make([]target, len(ss))
	for i, s := range ss {
		ts[i] = target{name: s.Name, label: s.Label, prog: s.Program, victim: s.Victim}
	}
	return ts
}

// system is a workload's built state: the detector (and, for
// serve-repeat, the server in front of it).
type system struct {
	det     *detect.Detector
	engineS float64      // first engine (and index) build, seconds
	eng     *scan.Engine // traced runs: a standalone engine with the detector's scan config
	srv     *serverState
}

// newDetector is a detector over repo with one of the scan modes of
// config.go; tel is nil outside traced runs.
func newDetector(repo *detect.Repository, sc scan.Config, tel *telemetry.Collector) *detect.Detector {
	det := detect.NewDetector(repo)
	det.Scan = sc
	det.Telemetry = tel
	return det
}

// buildEngine forces the detector's first scan-engine build (and index
// build, when indexing) by classifying a repository entry, and returns
// how long it took.
func buildEngine(det *detect.Detector) (float64, error) {
	t0 := time.Now()
	if _, err := det.ClassifyBBSCtx(bg, det.Repo.Entries[0].BBS); err != nil {
		return 0, fmt.Errorf("first engine build: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// setupSystem builds the system repeats times and keeps the last
// build; it returns each build's duration. Earlier builds are released
// and collected before the next, so they neither share its caches nor
// inflate the peak RSS.
func setupSystem(repeats int, build func() (*system, error)) (*system, []float64, error) {
	var (
		sys     *system
		secs    []float64
		engineS []float64
	)
	for i := 0; i < repeats; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		engineS = append(engineS, s.engineS)
		sys = s
	}
	sys.engineS = median(engineS)
	return sys, secs, nil
}

func (s *system) close() {
	if s.srv != nil {
		s.srv.close()
	}
}

// closedSpec describes a closed-loop workload.
type closedSpec struct {
	setup func(sz sizes, tel *telemetry.Collector) (*system, error)
	// targets generates the inputs from the seed (untimed).
	targets func(sys *system, sz sizes, seed int64) ([]target, error)
	// op is one measured operation.
	op func(sys *system, t *target) (verdict, *model.CSTBBS, error)
	// expected is the verdict the target must get, from the oracle (or,
	// for watch, from the target's first run); bbs and ref are the
	// warm pass's model and verdict.
	expected func(orc *oracle, t *target, bbs *model.CSTBBS, ref verdict) verdict
	// traceEngine reports whether the traced run times a standalone
	// scan.Engine next to the detector.
	traceEngine bool
	// decompose runs one operation as separate calls into each layer's
	// public function, recording a span around each.
	decompose func(sys *system, tr *tracer, t *target, lc *layerCounts) (verdict, *model.CSTBBS, error)
	windowed  bool
}

// runClosed runs a closed-loop workload: setup, one untimed warm pass
// over every target, the measured phase, the oracle check and, in
// traced runs, the per-layer decomposition.
func runClosed(o options, spec closedSpec) (*report, error) {
	var tel *telemetry.Collector
	if o.trace {
		tel = telemetry.NewCollector()
	}
	sys, setupS, err := setupSystem(o.setupRepeats, func() (*system, error) { return spec.setup(o.sizes, tel) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	targets, err := spec.targets(sys, o.sizes, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating targets: %w", err)
	}
	n := len(targets)
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}

	ref := make([]verdict, n)
	models := make([]*model.CSTBBS, n)
	errs := make([]error, n)
	warm0 := time.Now()
	parallel(n, func(i int) { ref[i], models[i], errs[i] = spec.op(sys, &targets[i]) })
	opCost := time.Since(warm0) * time.Duration(clients()) / time.Duration(n)

	order := rand.New(rand.NewSource(o.seed)).Perm(n)
	dur := o.dur(1)
	m0, rt0 := tel.Snapshot(), readRuntime()
	recs := closedLoop(dur, capacityHint(dur, opCost), func(k int) (int, verdict, error) {
		i := order[k%n]
		v, _, err := spec.op(sys, &targets[i])
		return i, v, err
	})
	rt := rt0.to(readRuntime())
	m1 := tel.Snapshot()
	rss := peakRSSMB()

	orc := newOracle(sys.det)
	expect := make([]verdict, n)
	parallel(n, func(i int) {
		if errs[i] == nil {
			expect[i] = spec.expected(orc, &targets[i], models[i], ref[i])
		}
	})
	correct := 0
	for i := range targets {
		switch {
		case errs[i] != nil:
			rep.problem("%s: %v", targets[i].name, errs[i])
		case !ref[i].same(expect[i]):
			rep.problem("%s: verdict %+v, oracle %+v", targets[i].name, ref[i], expect[i])
		}
		if errs[i] == nil && ref[i].Pred == targets[i].label {
			correct++
		}
	}
	rep.Attempted = len(recs)
	for _, r := range recs {
		if r.err != nil || errs[r.target] != nil || !r.v.same(expect[r.target]) {
			rep.Failed++
		}
	}

	st := summarize(recs, dur)
	rep.Samples = st.samples
	rep.Metrics = withUnits(endToEnd, map[string]float64{
		"latency_p50_ms":   st.p50,
		"latency_p99_ms":   st.p99,
		"throughput_ops_s": st.throughput,
		"allocs_per_op":    frac(float64(rt.allocs), float64(len(recs))),
		"bytes_per_op":     frac(float64(rt.bytes), float64(len(recs))),
		"peak_rss_mb":      rss,
		"setup_s":          median(setupS),
	})

	if o.trace {
		in := layerInputs{
			windowed: spec.windowed, m0: m0, m1: m1, rt: rt, measuredOps: len(recs),
			engineBuildS: sys.engineS, accuracy: frac(float64(correct), float64(n)),
			detectLatencyKcycles: detectLatency(targets, ref),
		}
		if err := traceClosed(o, spec, sys, targets, ref, models, &in, rep); err != nil {
			return nil, err
		}
		rep.PerLayer = withUnits(perLayer, layerMetrics(in))
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep, nil
}

// capacityHint sizes each client's record buffer so the measured phase
// never grows it.
func capacityHint(dur, opCost time.Duration) int {
	if opCost <= 0 {
		return 1 << 16
	}
	return int(2*dur/opCost) + 1024
}

// detectLatency is the mean latency-to-detection, in thousands of
// simulated cycles, over the attack targets a windowed run flagged.
func detectLatency(targets []target, ref []verdict) float64 {
	var sum float64
	n := 0
	for i, t := range targets {
		if t.label != attacks.FamilyBenign && ref[i].Detected {
			sum += float64(ref[i].DetectionCycle - ref[i].FirstEventCycle)
			n++
		}
	}
	return frac(sum, float64(n)) / 1000
}

// strideSelect picks at most max indices of [0,n) at an even stride.
func strideSelect(n, max int) []int {
	step := (n + max - 1) / max
	var sel []int
	for i := 0; i < n; i += step {
		sel = append(sel, i)
	}
	return sel
}

// traceClosed is the traced run's decomposition: each selected target
// once untimed-by-spans (the overhead baseline), then twice as separate
// layer calls with spans. The decomposed operations must reproduce the
// warm pass's model and verdict exactly.
func traceClosed(o options, spec closedSpec, sys *system, targets []target, ref []verdict, models []*model.CSTBBS, in *layerInputs, rep *report) error {
	sel := strideSelect(len(targets), o.traceTargets)
	if spec.traceEngine {
		entries := sys.det.Repo.Entries
		ms := make([]*model.CSTBBS, len(entries))
		for i, e := range entries {
			ms[i] = e.BBS
		}
		c := sys.det.Scan
		c.Sim, c.Cache = sys.det.SimOpts, scan.NewDistCache()
		sys.eng = scan.New(ms, c)
		for _, i := range sel { // warm the standalone engine's caches
			if models[i] != nil && sys.det.GateReason(models[i]) == "" {
				if _, err := sys.eng.ScanCtx(bg, models[i]); err != nil {
					return fmt.Errorf("warming the traced scan engine: %w", err)
				}
			}
		}
	}
	var base time.Duration
	for _, i := range sel {
		t0 := time.Now()
		_, _, _ = spec.op(sys, &targets[i]) // verdicts were checked in the measured phase
		base += time.Since(t0)
	}
	in.untracedOp = base / time.Duration(len(sel))

	tel := sys.det.Telemetry
	in.d0 = tel.Snapshot()
	tr := newTracer()
	for pass := 0; pass < 2; pass++ {
		for _, i := range sel {
			tr.beginOp()
			v, bbs, err := spec.decompose(sys, tr, &targets[i], &in.counts)
			tr.end()
			rep.Attempted++
			switch {
			case err != nil:
				rep.Failed++
				rep.problem("traced %s: %v", targets[i].name, err)
			case !v.same(ref[i]):
				rep.Failed++
				rep.problem("traced %s: verdict %+v, untraced %+v", targets[i].name, v, ref[i])
			case bbs != nil && models[i] != nil && vcache.TargetHash(bbs) != vcache.TargetHash(models[i]):
				rep.Failed++
				rep.problem("traced %s: CST-BBS differs from the untraced model", targets[i].name)
			}
		}
	}
	in.d1 = tel.Snapshot()
	in.spans = summarizeSpans(tr.spans, len(sel))
	in.spans.writeTable(os.Stderr, o.workload)
	if o.spans != "" {
		return tr.write(o.spans)
	}
	return nil
}

var bg = context.Background()

// defaultSystem is a detector over the default repository.
func defaultSystem(sc scan.Config, tel *telemetry.Collector) (*system, error) {
	repo, err := detect.BuildRepository(attacks.All(attacks.DefaultParams()), model.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sys := &system{det: newDetector(repo, sc, tel)}
	sys.engineS, err = buildEngine(sys.det)
	return sys, err
}

// triage: programs in, verdicts out, exact scan against the default
// repository — the paper's deployment.
var triage = closedSpec{
	setup: func(_ sizes, tel *telemetry.Collector) (*system, error) { return defaultSystem(triageScan, tel) },
	targets: func(_ *system, sz sizes, seed int64) ([]target, error) {
		ds, err := dataset.Standard(dataset.Config{PerClass: sz.triagePerClass, Seed: seed})
		if err != nil {
			return nil, err
		}
		return sampleTargets(ds.Samples), nil
	},
	op: func(sys *system, t *target) (verdict, *model.CSTBBS, error) {
		res, m, err := sys.det.ClassifyCtx(bg, t.prog, t.victim)
		if err != nil {
			return verdict{}, nil, err
		}
		return resultVerdict(res), m.BBS, nil
	},
	expected: func(orc *oracle, _ *target, bbs *model.CSTBBS, _ verdict) verdict {
		return orc.verdict(bbs)
	},
	traceEngine: true,
	decompose: func(sys *system, tr *tracer, t *target, lc *layerCounts) (verdict, *model.CSTBBS, error) {
		det := sys.det
		mcfg := det.ModelCfg
		mcfg.Telemetry = det.Telemetry
		tr.begin("cfg.Build")
		c, err := cfg.Build(t.prog)
		tr.end()
		if err != nil {
			return verdict{}, nil, err
		}
		m, trc, err := runMachine(tr, mcfg.Exec, t)
		if err != nil {
			return verdict{}, nil, err
		}
		tr.begin("model.BuildFromTrace")
		mod, err := model.BuildFromTrace(t.prog, trc, m.Hierarchy().LLC().Config(), mcfg)
		tr.end()
		if err != nil {
			return verdict{}, nil, err
		}
		v, err := scanAndClassify(sys, tr, mod.BBS)
		addMachineCounts(lc, m, trc)
		lc.blocks += c.NumBlocks()
		lc.potential += len(mod.PotentialBBs)
		lc.relevant += len(mod.RelevantBBs)
		lc.modelLen += mod.BBS.Len()
		return v, mod.BBS, err
	},
}

// runMachine creates and runs the simulated machine, one span each.
func runMachine(tr *tracer, ecfg exec.Config, t *target) (*exec.Machine, *exec.Trace, error) {
	tr.begin("exec.NewMachine")
	m, err := exec.NewMachine(ecfg, t.prog, t.victim)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("exec.Run")
	trc := m.Run()
	tr.end()
	return m, trc, nil
}

// scanAndClassify times the standalone engine's scan (skipped for gated
// models, as the detector skips it) and then the detector's
// classification of the same model.
func scanAndClassify(sys *system, tr *tracer, bbs *model.CSTBBS) (verdict, error) {
	if sys.det.GateReason(bbs) == "" {
		tr.begin("scan.ScanCtx")
		_, err := sys.eng.ScanCtx(bg, bbs)
		tr.end()
		if err != nil {
			return verdict{}, err
		}
	}
	tr.begin("detect.ClassifyBBSCtx")
	res, err := sys.det.ClassifyBBSCtx(bg, bbs)
	tr.end()
	return resultVerdict(res), err
}

func addMachineCounts(lc *layerCounts, m *exec.Machine, trc *exec.Trace) {
	lc.retired += trc.Retired
	lc.cycles += trc.Cycles
	lc.pages += uint64(m.Memory().PageCount())
	lc.events += uint64(len(trc.Events))
}

// rescan: models in, verdicts out, pruned and indexed, against the
// 500-variant corpus — shard-serve and re-scoring traffic.
var rescan = closedSpec{
	setup: func(sz sizes, tel *telemetry.Collector) (*system, error) {
		repo, err := detect.BuildVariantRepository(sz.corpus)
		if err != nil {
			return nil, err
		}
		sys := &system{det: newDetector(repo, rescanScan, tel)}
		sys.engineS, err = buildEngine(sys.det)
		return sys, err
	},
	targets: func(sys *system, sz sizes, seed int64) ([]target, error) {
		var ts []target
		for i, e := range sys.det.Repo.Entries {
			if i%sz.rescanCorpusEvery == 0 {
				ts = append(ts, target{name: e.Name, label: e.Family, bbs: e.BBS})
			}
		}
		ds, err := dataset.Standard(dataset.Config{PerClass: sz.rescanPerClass, Seed: seed})
		if err != nil {
			return nil, err
		}
		held := sampleTargets(ds.Samples)
		errs := make([]error, len(held))
		parallel(len(held), func(i int) {
			m, err := model.Build(held[i].prog, held[i].victim, sys.det.ModelCfg)
			if err != nil {
				errs[i] = fmt.Errorf("modeling %s: %w", held[i].name, err)
				return
			}
			held[i].bbs = m.BBS
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return append(ts, held...), nil
	},
	op: func(sys *system, t *target) (verdict, *model.CSTBBS, error) {
		res, err := sys.det.ClassifyBBSCtx(bg, t.bbs)
		return resultVerdict(res), t.bbs, err
	},
	expected: func(orc *oracle, t *target, _ *model.CSTBBS, _ verdict) verdict {
		return orc.verdict(t.bbs)
	},
	traceEngine: true,
	decompose: func(sys *system, tr *tracer, t *target, lc *layerCounts) (verdict, *model.CSTBBS, error) {
		v, err := scanAndClassify(sys, tr, t.bbs)
		lc.modelLen += t.bbs.Len()
		return v, t.bbs, err
	},
}

// watch: online sliding-window detection over execution traces, exact
// per-window scans against the default repository.
var watch = closedSpec{
	setup: func(_ sizes, tel *telemetry.Collector) (*system, error) { return defaultSystem(watchScan, tel) },
	targets: func(_ *system, sz sizes, seed int64) ([]target, error) {
		ds, err := dataset.Standard(dataset.Config{PerClass: sz.watchPerClass, Seed: seed})
		if err != nil {
			return nil, err
		}
		return sampleTargets(ds.Samples), nil
	},
	op: func(sys *system, t *target) (verdict, *model.CSTBBS, error) {
		out, err := window.Watch(bg, sys.det, t.prog, t.victim, sys.det.ModelCfg.Exec, window.Config{}, nil)
		return outcomeVerdict(out), nil, err
	},
	expected: func(_ *oracle, _ *target, _ *model.CSTBBS, ref verdict) verdict { return ref },
	decompose: func(sys *system, tr *tracer, t *target, lc *layerCounts) (verdict, *model.CSTBBS, error) {
		ecfg := sys.det.ModelCfg.Exec
		ecfg.RecordEvents = true // as window.Watch does
		m, trc, err := runMachine(tr, ecfg, t)
		if err != nil {
			return verdict{}, nil, err
		}
		tr.begin("window.Replay")
		out, err := window.Replay(bg, sys.det, t.prog, m.Hierarchy().LLC().Config(), trc, window.Config{}, nil)
		tr.end()
		addMachineCounts(lc, m, trc)
		lc.windows += out.Windows
		lc.quiet += out.Quiet
		return outcomeVerdict(out), nil, err
	},
	windowed: true,
}
