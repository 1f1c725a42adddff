// Package scan implements SCAGuard's repository scan engine: the hot
// path of the deployment layer (paper Section III-B3), where a target's
// CST-BBS is compared against every attack behavior model in the
// repository. The paper's time-cost table shows this similarity
// comparison dominating end-to-end detection latency, so the engine
// attacks it on three axes (design rationale and measured numbers in
// docs/PERFORMANCE.md):
//
//   - Parallelism. One target's per-entry scoring fans out across a
//     worker pool (Config.Workers, default GOMAXPROCS) whose calling
//     goroutine is one of the workers. Exact scans claim entries one
//     at a time; a pruned scan gives each worker a strided slice of
//     the entries to bound and score most-promising-first. Results are
//     collected positionally, so the output is deterministic
//     regardless of scheduling.
//   - Memoization. The normalized-instruction Levenshtein term is the
//     dominant cost inside every DTW cell, and the same basic blocks
//     recur across repository entries, scans and targets (crypto loops,
//     probe loops). A DistCache shared safely across workers computes
//     each distinct block pair once.
//   - Early abandoning (Config.Prune, the CLI's -fast). Each worker's
//     entries are ordered by the cheap lower-bound cascade
//     (similarity.LowerBoundKim and LowerBoundKeogh), skip once a bound
//     provably cannot beat the best score found so far, escalate lazily
//     to the per-row bound (similarity.LowerBound) near the cutoff, and
//     the banded DTW itself abandons row-wise
//     (dtw.DistanceAbandonScratch) once every cell exceeds the bound
//     implied by the running best. Pruned entries report an
//     upper-bound score and Pruned=true; the best match is always
//     computed exactly, so classification decisions and explanations
//     are unaffected.
//
// In exact mode (Prune=false, the default) the engine is bit-identical
// to the serial reference path (ScanSerial): same comparisons, same
// float operations, same scores. The differential tests in this package
// and in internal/detect enforce that equivalence on real corpora.
//
// An Engine is immutable after New and safe for concurrent use; it
// snapshots the model slice it is given, so the caller may keep
// appending to a repository while older engines scan.
package scan

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dtw"
	"repro/internal/faultinject"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/similarity"
	"repro/internal/telemetry"
)

// Config tunes a scan engine.
type Config struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Prune enables early abandoning through the lower-bound cascade
	// (see the package doc). The best match (and therefore the
	// classification) stays exact; non-best entries may be skipped once
	// they provably cannot win, reporting an upper-bound score with
	// Pruned=true. Which entries get pruned depends on scheduling, so
	// full match lists are only reproducible with Prune=false.
	Prune bool
	// Deprecated: Cascade has no effect. Every pruned scan runs the
	// lower-bound cascade; the field remains only so existing struct
	// literals compile.
	Cascade bool
	// Index enables the medoid-prototype repository index
	// (internal/index): entries are clustered at engine build time via
	// the pairwise-distance MST, each scan scores the cluster
	// prototypes first and visits clusters in ascending prototype-
	// distance order, and entries of clusters that provably (per-entry
	// cascade certificates) cannot beat the running cutoff are skipped
	// without per-row DTW work — sub-linear scans on large
	// repositories. The best match, prediction and explanation stay
	// exact, exactly as under Prune; which entries report Pruned=true
	// remains schedule-dependent. Ignored when Prune is false; an
	// injected index-build fault degrades to the flat scan path. See
	// docs/INDEXING.md.
	Index bool
	// IndexClusters overrides the index's cluster count; <= 0 selects
	// the ~sqrt(N)/2 default (index.DefaultClusters).
	IndexClusters int
	// IndexMaxClusters, when > 0, enables the approximate recall-
	// trading mode: per target at most this many clusters (in
	// ascending prototype-distance order) are examined normally, and
	// the members of every later cluster are skipped on the triangle-
	// inequality estimate alone — which the normalized DTW distance
	// does not guarantee, so the true best match may be missed. Exact
	// mode (the default, 0) never trusts that estimate for a skip.
	IndexMaxClusters int
	// Sim is the similarity configuration shared by every comparison.
	Sim similarity.Options
	// Cache optionally shares a Levenshtein memo across engines (e.g.
	// across detectors built over one repository); nil creates a
	// private cache.
	Cache *DistCache
	// Telemetry optionally records scan counters (comparisons resolved
	// exactly vs pruned, lower-bound cutoff hits) and per-scan latency.
	// nil disables instrumentation at zero cost.
	Telemetry *telemetry.Collector
}

// Semantics is the part of a Config that decides what a scan returns:
// pruning, the repository-index mode and the similarity options. It is
// comparable, and it is the one value that keys every memoized engine
// and the verdict result cache (internal/vcache), so a new scan knob
// belongs here and on the shard wire, nowhere else.
type Semantics struct {
	Prune            bool
	Index            bool
	IndexClusters    int
	IndexMaxClusters int
	Sim              similarity.Options
}

// Semantics returns c's scan semantics in canonical form, so two
// configurations that scan identically compare equal: Sim has its
// defaults applied, the index fields are zeroed when Prune is off, and
// the cluster counts are zeroed when Index is off.
func (c Config) Semantics() Semantics {
	s := Semantics{Prune: c.Prune, Sim: c.Sim.WithDefaults()}
	if c.Prune && c.Index {
		s.Index, s.IndexClusters, s.IndexMaxClusters = true, c.IndexClusters, c.IndexMaxClusters
	}
	return s
}

// Config returns a Config carrying s; the operational fields (Workers,
// Cache, Telemetry) are left zero for the caller to fill.
func (s Semantics) Config() Config {
	return Config{
		Prune:            s.Prune,
		Index:            s.Index,
		IndexClusters:    s.IndexClusters,
		IndexMaxClusters: s.IndexMaxClusters,
		Sim:              s.Sim,
	}
}

// Match is one repository comparison result.
type Match struct {
	// Index identifies the repository entry (position in the model
	// slice the engine was built from).
	Index int
	// Score is the similarity score 1/(D+1). For pruned entries it is
	// an upper bound on the true score, derived from the lower bound
	// that justified skipping the full comparison.
	Score float64
	// Pruned marks entries skipped by early abandoning.
	Pruned bool
}

// CloneMatches returns an independent copy of a match slice (nil in,
// nil out). The verdict result cache (internal/vcache) hands each
// caller its own copy of a memoized scan outcome, so no caller can
// mutate the cached slice out from under the others.
func CloneMatches(ms []Match) []Match {
	if ms == nil {
		return nil
	}
	return append([]Match(nil), ms...)
}

// Engine scans targets against a fixed set of repository models.
type Engine struct {
	cfg    Config
	sim    similarity.Options // cfg.Sim with defaults applied
	models []*model.CSTBBS
	profs  []*similarity.Profile
	ids    [][]uint32
	flats  []*model.FlatBBS // flattened symbol form; nil entries fall back to strings
	tab    *model.SymTab
	cache  *DistCache
	idx    *index.Index // nil unless Config.Index built one

	// scratches recycles worker scratches across scans. The win is not
	// the buffer reuse (those are small) but the worker-local pair memo
	// riding inside each scratch: it stays warm across scans of a long-
	// lived engine, so steady-state DTW cells never touch the shared
	// cache's lock.
	scratches sync.Pool
}

// getScratch hands out a pooled worker scratch (allocating one for a
// cold pool); putScratch returns it after clearing the per-scan
// bindings so pooled scratches never pin a finished scan's target.
func (e *Engine) getScratch() *scratch {
	if s, ok := e.scratches.Get().(*scratch); ok {
		return s
	}
	return e.newScratch()
}

func (e *Engine) putScratch(s *scratch) {
	s.t, s.eb, s.eids, s.eprof, s.eflat = nil, nil, nil, nil, nil
	s.job, s.runK = nil, 0
	e.scratches.Put(s)
}

// New builds an engine over a snapshot of models. Construction interns
// every repository block into the cache, flattens every model into the
// contiguous symbol form the comparison kernel runs on, and precomputes
// the per-entry profiles the lower bounds need; it is cheap (linear in
// total blocks) next to a single repository scan.
func New(models []*model.CSTBBS, cfg Config) *Engine {
	e := &Engine{
		cfg:    cfg,
		sim:    cfg.Sim.WithDefaults(),
		models: append([]*model.CSTBBS(nil), models...),
		tab:    model.NewSymTab(),
		cache:  cfg.Cache,
	}
	if e.cache == nil {
		e.cache = NewDistCache()
	}
	e.profs = make([]*similarity.Profile, len(e.models))
	e.ids = make([][]uint32, len(e.models))
	e.flats = make([]*model.FlatBBS, len(e.models))
	for i, m := range e.models {
		e.profs[i] = similarity.NewProfile(m)
		e.ids[i] = e.internBlocks(m)
		e.flats[i], _ = model.FlattenBBS(m, e.tab)
	}
	if cfg.Index && cfg.Prune {
		e.idx = e.buildIndex()
		if e.idx != nil {
			cfg.Telemetry.RegisterGauges("index", e.idx.Gauges)
		}
	}
	return e
}

// Len returns the number of repository models scanned per target.
func (e *Engine) Len() int { return len(e.models) }

// Cache returns the engine's Levenshtein memo (for sharing and stats).
func (e *Engine) Cache() *DistCache { return e.cache }

func (e *Engine) internBlocks(m *model.CSTBBS) []uint32 {
	ids := make([]uint32, m.Len())
	var buf [512]byte // one key buffer for every block; most keys fit
	key := buf[:0]
	for i, c := range m.Seq {
		key = appendBlockKey(key[:0], c.NormInsns)
		ids[i] = e.cache.intern(key)
	}
	return ids
}

// target carries the per-scan precomputation for one CST-BBS.
type target struct {
	bbs  *model.CSTBBS
	prof *similarity.Profile
	ids  []uint32
	flat *model.FlatBBS // nil when flattening failed (symbol table full)
}

func (e *Engine) newTarget(bbs *model.CSTBBS) target {
	t := target{bbs: bbs, prof: similarity.NewProfile(bbs), ids: e.internBlocks(bbs)}
	t.flat, _ = model.FlattenBBS(bbs, e.tab)
	return t
}

// Scan scores one target against every repository model. The result is
// ordered by entry index. In exact mode the scores are bit-identical to
// ScanSerial's. A panic while scoring re-raises in the calling
// goroutine (the loud contract of the non-context API); use ScanCtx to
// receive it as an error instead.
func (e *Engine) Scan(bbs *model.CSTBBS) []Match {
	ms, err := e.ScanCtx(context.Background(), bbs)
	if err != nil {
		// Background contexts never cancel, so the error is a recovered
		// worker panic (re-raised with its original value) or an
		// injected test fault; either way this API has no error path.
		_ = panicsafe.Repanic(err)
		panic(err)
	}
	return ms
}

// ScanCtx is Scan with cooperative cancellation and panic isolation.
// Workers observe ctx between work items — the items are microsecond-
// scale, so cancellation and deadline expiry return promptly with the
// context's error — and every scoring runs under panic recovery: the
// first recovered panic (or injected worker fault) stops the scan and
// comes back as the error, counted under telemetry's panics_recovered.
// On a non-nil error the matches are nil.
func (e *Engine) ScanCtx(ctx context.Context, bbs *model.CSTBBS) ([]Match, error) {
	return e.scanCtx(ctx, bbs, nil)
}

// ScanCutoffCtx is ScanCtx with an externally owned pruning cutoff:
// instead of a private per-target best, the scan consults and updates
// cut. A shard server scans its slice of a partitioned repository this
// way, and the coordinator's broadcasts of other shards' matches lower
// cut mid-scan (the cutoff broadcast, internal/shard). A cut that
// already carries a bound tightens pruning from the first comparison.
// With Prune off the cutoff is ignored and the scan is bit-identical
// to ScanCtx.
func (e *Engine) ScanCutoffCtx(ctx context.Context, bbs *model.CSTBBS, cut *Cutoff) ([]Match, error) {
	return e.scanCtx(ctx, bbs, cut)
}

// ScanSerial is the reference implementation the engine is verified
// against: the pre-engine serial loop calling similarity.Score per
// entry, with no parallelism, memoization or pruning.
func (e *Engine) ScanSerial(bbs *model.CSTBBS) []Match {
	out := make([]Match, len(e.models))
	for i, m := range e.models {
		out[i] = Match{Index: i, Score: similarity.Score(bbs, m, e.sim)}
	}
	return out
}

// scanJob is one target's scan in flight: the target, its positional
// output, the cutoff, the worker count a pruned flat scan strides its
// entries by, and the claim, completion and first-failure state every
// worker shares.
type scanJob struct {
	e       *Engine
	ctx     context.Context
	t       target
	out     []Match
	cut     *Cutoff
	indexed bool
	workers int

	next     atomic.Int64   // exact scans: entries claimed so far
	helpers  sync.WaitGroup // the helper goroutines (workers 1..W-1)
	stop     atomic.Bool    // set by the first failure
	failOnce sync.Once
	err      error
}

// scanCtx is the scan core. cut, when non-nil, is the shared pruning
// cutoff (ScanCutoffCtx); nil gives the scan a private one.
func (e *Engine) scanCtx(ctx context.Context, bbs *model.CSTBBS, cut *Cutoff) ([]Match, error) {
	tel := e.cfg.Telemetry
	defer tel.ObserveSince(telemetry.StageScan, tel.Now())
	tel.Inc(telemetry.ScanTargets)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cut == nil {
		cut = NewCutoff()
	}
	nE := len(e.models)
	j := &scanJob{e: e, ctx: ctx, t: e.newTarget(bbs), out: make([]Match, nE), cut: cut, indexed: e.indexed()}
	if nE == 0 {
		return j.out, nil
	}
	if j.indexed {
		// The cluster descent is inherently sequential (the prototype
		// pass must finish before the gates mean anything), so the whole
		// target is one work item run here. See docs/INDEXING.md.
		s := e.workerScratch(j)
		j.runSafe(0, s)
		e.putScratch(s)
		return j.result()
	}
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nE {
		workers = nE
	}
	j.workers = workers
	// The calling goroutine is worker 0, so a one-worker scan starts no
	// goroutine.
	j.helpers.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer j.helpers.Done()
			s := e.workerScratch(j)
			j.work(w, s)
			e.putScratch(s)
		}()
	}
	if workers > 1 {
		// A new goroutine waits in its creator's run-next slot, which an
		// idle P steals only after a delay (~75 µs on the 2-core
		// reference container, a sixth of a pruned scan). Starting an
		// empty goroutine last moves the last helper to the ordinary run
		// queue, where an idle P takes it at once. Yielding instead cost
		// throughput when concurrent scans oversubscribe the cores.
		go func() {}()
	}
	s := e.workerScratch(j)
	j.work(0, s)
	e.putScratch(s)
	j.helpers.Wait()
	return j.result()
}

// workerScratch draws a pooled scratch and binds it to j. Each worker
// owns one scratch (DTW rows, Levenshtein rows, Keogh deques, the bound
// dist closure, the pair memo and the panicsafe trampoline), so the
// per-item loop allocates nothing once warm and the memo survives
// across scans.
func (e *Engine) workerScratch(j *scanJob) *scratch {
	s := e.getScratch()
	s.job = j
	return s
}

// work is worker w's loop over the entries of a flat scan, one work
// item per entry, until every item is done, the scan fails or ctx
// ends. An exact scan claims entries one at a time from a shared
// counter. A pruned scan gives worker w the strided slice w, w+W,
// w+2W, ... of the entries: its first item bounds the slice, and the
// rest score it most-promising-first under the one shared cutoff, so
// the bounds run in parallel and every worker tightens the cutoff
// early. With one worker the slice is the whole repository.
func (j *scanJob) work(w int, s *scratch) {
	if !j.e.cfg.Prune {
		for j.live() {
			k := j.next.Add(1) - 1
			if k >= int64(len(j.out)) {
				return
			}
			j.runSafe(int(k), s)
		}
		return
	}
	s.w = w
	j.runSafe(boundItem, s)
	for _, p := range s.ord {
		if !j.live() {
			return
		}
		j.runSafe(w+p*j.workers, s)
	}
}

// live reports whether workers should take another item: no work item
// has failed and ctx has not ended.
func (j *scanJob) live() bool { return !j.stop.Load() && j.ctx.Err() == nil }

// boundItem is the work item that bounds and orders a pruned worker's
// slice before its entries are scored. It fires no failpoint.
const boundItem = -1

// runSafe runs work item k under panic recovery. The first failure
// (recovered panic or injected fault) is kept and stops the scan.
func (j *scanJob) runSafe(k int, s *scratch) {
	s.runK = k
	err := panicsafe.Do(s.runFn)
	if err == nil {
		return
	}
	if _, ok := panicsafe.AsPanic(err); ok {
		j.e.cfg.Telemetry.Inc(telemetry.PanicsRecovered)
	}
	j.failOnce.Do(func() { j.err = err })
	j.stop.Store(true)
}

// runItem is the body of one work item: the bounds of a pruned worker's
// slice, or, behind one ScanWorker failpoint fire, the whole indexed
// descent or entry k of a flat scan.
func (j *scanJob) runItem(k int, s *scratch) error {
	if k == boundItem {
		j.e.boundSlice(&j.t, s.w, j.workers, s)
		return nil
	}
	if err := faultinject.Fire(faultinject.ScanWorker, ""); err != nil {
		return err
	}
	switch {
	case j.indexed:
		j.e.scanIndexed(&j.t, j.out, j.cut, s)
	case j.e.cfg.Prune:
		p := k / j.workers
		j.out[k] = j.e.scoreOne(&j.t, k, s.lbs[p], s.kims[p], j.cut, s)
	default:
		j.out[k] = j.e.scoreOne(&j.t, k, 0, 0, j.cut, s)
	}
	return nil
}

// result is the scan's outcome once every worker has returned: the
// matches, or nil and the first failure or the context's error.
func (j *scanJob) result() ([]Match, error) {
	if j.err != nil {
		return nil, j.err
	}
	if err := j.ctx.Err(); err != nil {
		return nil, err
	}
	return j.out, nil
}

// cascadeEscalateFrac gates the lazy tier-3 escalation: the exact
// per-row bound (similarity.LowerBound) runs only for entries whose
// tier-1/2 bound already reaches this fraction of the cutoff. A bound
// far below the cutoff is almost never bridged by the modest tightening
// tier 3 adds, so spending O((n+m)·w) on it costs more than the banded
// DTW rows it would save — early abandoning catches those entries a few
// rows in anyway. The gate is a pure performance heuristic: it decides
// whether an extra prune-only bound is consulted, never how an entry is
// scored, so verdicts are unaffected by its value.
const cascadeEscalateFrac = 0.75

// boundSlice fills s with worker w's slice of a pruned flat scan, the
// entries w, w+W, w+2W, ... for W workers: per slice position, the
// tier-1 (Kim) bound alone (kims, for skip attribution) and the running
// maximum of the tier-1 and tier-2 (Keogh) bounds (lbs), and ord, the
// positions most-promising-first (lowest lbs first, ties in entry
// order) so the shared best tightens as early as possible. The per-row
// tier runs lazily in scoreOne for the few entries within striking
// distance of the cutoff.
func (e *Engine) boundSlice(t *target, w, workers int, s *scratch) {
	s.lbs, s.kims, s.ord = s.lbs[:0], s.kims[:0], s.ord[:0]
	for ei := w; ei < len(e.models); ei += workers {
		kim := similarity.LowerBoundKim(t.prof, e.profs[ei], e.sim)
		lb := kim
		if b := similarity.LowerBoundKeogh(t.prof, e.profs[ei], e.sim, &s.keo); b > lb {
			lb = b
		}
		s.ord = append(s.ord, len(s.lbs))
		s.lbs = append(s.lbs, lb)
		s.kims = append(s.kims, kim)
	}
	slices.SortStableFunc(s.ord, func(a, b int) int { return cmp.Compare(s.lbs[a], s.lbs[b]) })
}

// scoreOne scores a single (target, entry) pair, consulting and
// updating the target's shared best distance when pruning. lb and kim
// are the entry's bounds from boundSlice (ignored by exact scans); the
// tier-3 per-row bound escalates lazily behind cascadeEscalateFrac.
// Every tier is a true lower bound and the code keeps their running
// maximum, so each tier stays prune-only and the reported pruned score
// stays a true upper bound.
func (e *Engine) scoreOne(t *target, ei int, lb, kim float64, cut *Cutoff, s *scratch) Match {
	tel := e.cfg.Telemetry
	if !e.cfg.Prune {
		d, _ := e.compare(t, ei, math.Inf(1), s)
		tel.Inc(telemetry.ScanEntriesExact)
		return Match{Index: ei, Score: dtw.Similarity(d)}
	}
	cutoff := pruneCutoff(cut.Best())
	bound := lb
	if bound > cutoff {
		if kim > cutoff {
			tel.Inc(telemetry.ScanEntriesKimSkipped)
		} else {
			tel.Inc(telemetry.ScanEntriesKeoghSkipped)
		}
		return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
	}
	if bound > cutoff*cascadeEscalateFrac {
		if b := similarity.LowerBound(t.prof, e.profs[ei], e.sim); b > bound {
			bound = b
		}
		if bound > cutoff {
			tel.Inc(telemetry.ScanEntriesLowerBoundSkipped)
			return Match{Index: ei, Score: dtw.Similarity(bound), Pruned: true}
		}
	}
	d, abandoned := e.compare(t, ei, cutoff, s)
	if abandoned {
		tel.Inc(telemetry.ScanEntriesAbandoned)
		return Match{Index: ei, Score: dtw.Similarity(d), Pruned: true}
	}
	cut.Update(d)
	tel.Inc(telemetry.ScanEntriesExact)
	return Match{Index: ei, Score: dtw.Similarity(d)}
}

// pruneCutoff converts the best distance seen so far into the cutoff an
// entry must provably exceed before it may be skipped. The margin keeps
// pruning conservative under floating-point rounding: an entry whose
// true distance ties the best is never pruned, so the exact winner (and
// deterministic index tie-breaking) is preserved.
func pruneCutoff(best float64) float64 {
	if math.IsInf(best, 1) {
		return best
	}
	return best + best*1e-9 + 1e-15
}
