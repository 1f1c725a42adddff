// Package detect implements SCAGuard's deployment layer
// (Section III-B3): a repository of attack behavior models built from
// the PoCs of known attacks, and a detector that models a target
// program, compares it against every repository entry with the CST-BBS
// similarity, and classifies it as the family of the best match — or as
// benign when every score falls below the threshold (45% by default,
// the optimum of Fig. 5).
//
// Classification runs on the repository scan engine (internal/scan):
// per-entry scoring fans out across a worker pool and the Levenshtein
// term is memoized in a cache owned by the Repository, so every
// detector sharing a repository shares the warm cache. The default
// configuration is exact — bit-identical to the serial reference loop —
// while Detector.Scan.Prune opts into early-abandoning scans that keep
// the best match (and hence the classification) exact but may skip
// provably losing entries. See docs/PERFORMANCE.md.
//
// A repository too large (or too hot) for one machine can be scanned
// through the scatter–gather layer instead: Detector.ShardAddrs
// partitions it across remote `scaguard shard-serve` processes, behind
// the exact same classification API — exact-mode results stay
// bit-identical, and failing shards degrade classification to partial
// results rather than blocking it. See docs/SHARDING.md.
//
// Repeated targets can skip the scan entirely: Detector.ResultCache
// layers the verdict result cache (internal/vcache) over whichever
// scan backend is configured, memoizing whole scan outcomes keyed by
// target content, repository version and scan semantics — invalidated
// automatically by Repository.Add's version bump, never polluted by
// partial results. See docs/PERFORMANCE.md.
package detect

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attacks"
	"repro/internal/breaker"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/panicsafe"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/similarity"
	"repro/internal/telemetry"
	"repro/internal/vcache"
)

// DefaultThreshold is the paper's operating point (the middle of the
// 30%-60% plateau of Fig. 5).
const DefaultThreshold = 0.45

// MinModelLen is the smallest CST-BBS that can represent an attack: a
// cache side-channel attack needs at least preparation, measurement and
// decision behavior, so its model always has several cache-active
// blocks. Targets with shorter models are benign by construction;
// without the gate a two-block benign model (e.g. one hot crypto table
// loop) could align its few blocks cheaply onto an attack model. A
// hand-written minimal Flush+Reload flattens to four entries, so the
// gate sits at three.
const MinModelLen = 3

// Entry is one attack behavior model in the repository.
type Entry struct {
	Name   string
	Family attacks.Family
	BBS    *model.CSTBBS
}

// Repository holds the known-attack models. The zero value is an empty
// repository ready for use.
//
// A Repository is safe for concurrent use as long as all mutation goes
// through Add: Add may race freely with classification (detectors scan
// a snapshot and pick up additions on their next call). The exported
// Entries field remains for read access by reporting code; appending to
// it directly bypasses the lock and the change tracking and must not be
// done concurrently with anything else.
type Repository struct {
	mu      sync.RWMutex
	version uint64
	cache   *scan.DistCache

	Entries []Entry
}

// Add inserts a model.
func (r *Repository) Add(name string, family attacks.Family, bbs *model.CSTBBS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Entries = append(r.Entries, Entry{Name: name, Family: family, BBS: bbs})
	r.version++
}

// Len returns the number of models.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.Entries)
}

// Version returns the repository's change counter: it starts at zero
// and increments on every Add or Replace. Detectors key their cached
// scan engines and verdict-cache entries on it, so observing the same
// version twice means the contents have not changed in between.
func (r *Repository) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// Replace atomically swaps the repository's entire contents for
// entries, bumping the version exactly like Add does. It is the
// hot-reload primitive: classifications already scanning keep their
// snapshot of the old contents, the next classification rebuilds its
// engine over the new ones, and version-keyed verdict-cache entries
// (Detector.ResultCache) become unreachable without an explicit flush.
// Replace may race freely with classification, Add and other Replaces.
func (r *Repository) Replace(entries []Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Entries = append([]Entry(nil), entries...)
	r.version++
}

// stamp returns the version and the entry count: what a detector checks
// before reusing its engine, without copying the entries. The count
// catches direct appends to Entries, which bypass the version.
func (r *Repository) stamp() (version uint64, n int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version, len(r.Entries)
}

// snapshot returns a stable copy of the entries plus the version that
// produced it, so detectors can scan while Add keeps inserting.
func (r *Repository) snapshot() ([]Entry, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Entry(nil), r.Entries...), r.version
}

// distCache returns the repository's shared Levenshtein memo, creating
// it on first use. The cache stores unweighted D_IS values only, so one
// cache serves every detector and similarity configuration built over
// this repository.
func (r *Repository) distCache() *scan.DistCache {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cache == nil {
		r.cache = scan.NewDistCache()
	}
	return r.cache
}

// Families returns the distinct families represented in the
// repository. The result is guaranteed deterministic: each family
// appears exactly once regardless of how many entries carry it or in
// what order they were added, and the slice is sorted in ascending
// lexicographic order of the family label. Callers may rely on this
// ordering (reports, golden files, cross-process comparisons).
func (r *Repository) Families() []attacks.Family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[attacks.Family]bool)
	for _, e := range r.Entries {
		seen[e.Family] = true
	}
	out := make([]attacks.Family, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BuildRepository models each PoC (with its victim when it has one) and
// stores the resulting CST-BBSes. This is the "one PoC per attack type"
// modeling step the paper's evaluation uses.
//
// The PoCs are modeled in parallel (see buildModels); the repository is
// the same as a serial build's, entry for entry.
func BuildRepository(pocs []attacks.PoC, cfg model.Config) (*Repository, error) {
	bbs, err := buildModels(len(pocs), func(i int) (*model.CSTBBS, error) {
		m, err := model.Build(pocs[i].Program, pocs[i].Victim, cfg)
		if err != nil {
			return nil, fmt.Errorf("detect: modeling %s: %w", pocs[i].Name, err)
		}
		return m.BBS, nil
	})
	if err != nil {
		return nil, err
	}
	r := &Repository{}
	for i, poc := range pocs {
		r.Add(poc.Name, poc.Family, bbs[i])
	}
	return r, nil
}

// buildModels runs build(i) for every i in [0, n) on
// runtime.GOMAXPROCS(0) workers and returns the models in index order.
// Each job writes only its own slot, so the result does not depend on
// the schedule, and neither does the error: it is the first by index.
// Workers stop taking jobs after a failure, but every job below a
// failed one was taken before it and still finishes. A job that panics
// re-panics here, in the caller's goroutine, as a serial loop would.
func buildModels(n int, build func(i int) (*model.CSTBBS, error)) ([]*model.CSTBBS, error) {
	out := make([]*model.CSTBBS, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = panicsafe.Do(func() (err error) {
					out[i], err = build(i)
					return err
				})
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, panicsafe.Repanic(err)
		}
	}
	return out, nil
}

// Match is one repository comparison result.
type Match struct {
	Name   string
	Family attacks.Family
	Score  float64
	// Pruned marks entries skipped by an early-abandoning scan
	// (Detector.Scan.Prune); their Score is an upper bound on the true
	// score. The best match is never pruned.
	Pruned bool
}

// Result is a classification outcome.
type Result struct {
	// Predicted is the inferred family, or attacks.FamilyBenign when no
	// score reached the threshold.
	Predicted attacks.Family
	// Best is the highest-scoring repository entry.
	Best Match
	// Matches lists every comparison, best first.
	Matches []Match
}

// Detector classifies target programs against a repository.
//
// A Detector is safe for concurrent use: Classify and ClassifyBBS may
// be called from many goroutines, and the repository may keep growing
// through Add while they run (each call scans a snapshot). Mutating the
// configuration fields concurrently with classification is not
// supported.
type Detector struct {
	Repo      *Repository
	Threshold float64
	ModelCfg  model.Config
	SimOpts   similarity.Options
	// RequireTimer gates classification on the target having read a
	// timer at least once: a cache side-channel attack measures timing
	// differences by definition, so a timer-free program is benign
	// regardless of its cache-access shape. Disable for ablations.
	RequireTimer bool
	// Scan tunes the repository scan engine (worker count, early
	// abandoning). Scan.Sim, Scan.Cache and Scan.Telemetry are ignored:
	// the engine always uses SimOpts, the repository's shared distance
	// cache and the detector's Telemetry collector.
	Scan scan.Config
	// ShardAddrs lists remote shard servers ("host:port" or http://
	// URLs, one shard per address in router order — each typically a
	// `scaguard shard-serve` process over the same repository file).
	// An address may name several "|"-separated replicas serving the
	// same partition ("a:7070|b:7070"): scans fail over between them,
	// so classification stays complete while at least one replica per
	// partition lives. When non-empty the repository scan is scattered
	// over them; a whole replica group going dark degrades
	// classification to the surviving shards' entries (see the
	// partial-result notes on the classify methods) instead of hanging
	// it. Exact-mode results stay bit-identical to the single-engine
	// scan; pruned scans share one cutoff across shards.
	ShardAddrs []string
	// ShardTimeout, when positive, bounds each shard's share of one
	// scan; a shard that exceeds it fails that scan and the result
	// degrades instead of waiting.
	ShardTimeout time.Duration
	// ShardAttemptTimeout, when positive, bounds each replica attempt
	// within a replicated shard, so a slow replica fails over instead of
	// consuming the whole per-shard budget (ShardTimeout still bounds
	// the group as a whole).
	ShardAttemptTimeout time.Duration
	// ShardBreaker tunes the per-replica circuit breakers of replicated
	// remote shards: after Threshold consecutive failures a backend is
	// skipped (scans fail over without paying its timeout) until it
	// probes healthy again. The zero value selects the breaker
	// defaults; Threshold -1 disables breaking.
	ShardBreaker breaker.Settings
	// ShardProbeInterval, when positive, runs a background health
	// prober over every remote replica so quarantined backends are
	// re-admitted within one interval of recovering, without waiting
	// for a scan to re-probe them. The prober goroutine lives until the
	// engine is rebuilt or Close is called.
	ShardProbeInterval time.Duration
	// ResultCache, when > 0, memoizes whole classification outcomes in a
	// bounded LRU of that many entries (internal/vcache), keyed by the
	// repository version, the scan semantics and one of two target
	// hashes. ClassifyCtx first looks up the program digest (program,
	// victim and ModelCfg), so a repeated binary skips modeling as well
	// as the scan; a model that is built is then looked up by its CST-BBS
	// content hash, which also catches renamed or re-laid-out binaries
	// that model alike. Concurrent identical targets collapse onto one
	// computation (singleflight). Any Repository.Add bumps the version and
	// thereby invalidates every cached result; errors and partial results
	// from degraded sharded scans are never cached. Exact-mode cached
	// verdicts are bit-identical to uncached scans; see
	// docs/PERFORMANCE.md and docs/ROBUSTNESS.md.
	ResultCache int
	// Timeout, when positive, is the per-classification deadline the
	// context-aware entry points (ClassifyCtx, ClassifyBBSCtx) apply on
	// top of their caller's context: each call gets its own deadline
	// covering modeling and scanning, and an expired deadline surfaces
	// as context.DeadlineExceeded. The non-context APIs ignore it.
	Timeout time.Duration
	// Telemetry optionally collects runtime counters and stage
	// latencies across the whole detection pipeline: scan pruning
	// outcomes, engine rebuilds, model-vs-scan wall time and the
	// repository DistCache hit rates (registered as the "distcache"
	// gauge source). nil disables instrumentation at zero cost. Like the
	// other configuration fields, set it before the first
	// classification.
	Telemetry *telemetry.Collector

	// scanner cache, rebuilt when the repository or the configuration
	// it was built under changes.
	mu         sync.Mutex
	eng        repoScanner
	engEntries []Entry
	engVer     uint64
	engKey     engineKey
	// engCoord is the remote-shard coordinator behind eng (nil unless
	// sharded); rebuilds and Close stop its background prober.
	engCoord *shard.Coordinator
	// vc is the verdict result cache behind ResultCache. It outlives
	// engine rebuilds on purpose: version-keyed entries from before an
	// Add are unreachable anyway, while a pure configuration flip (e.g.
	// toggling Telemetry) keeps its warm entries.
	vc    *vcache.Cache
	vcCap int
	vcTel *telemetry.Collector
}

// repoScanner is what classification needs from the scan layer: one
// target in, positional matches out. A single scan.Engine and a
// shard.Coordinator both satisfy it, so the sharded repository hides
// behind the same Classify/ClassifyBBS/Ctx API.
type repoScanner interface {
	ScanCtx(ctx context.Context, bbs *model.CSTBBS) ([]scan.Match, error)
}

// engineKey captures the configuration a scanner was built under.
type engineKey struct {
	workers        int
	sem            scan.Semantics
	tel            *telemetry.Collector
	addrs          string
	shardTimeout   time.Duration
	attemptTimeout time.Duration
	brk            breaker.Settings
	probeInterval  time.Duration
	resultCache    int
}

func (d *Detector) key() engineKey {
	return engineKey{
		workers: d.Scan.Workers, sem: d.scanConfig().Semantics(), tel: d.Telemetry,
		addrs: strings.Join(d.ShardAddrs, ","), shardTimeout: d.ShardTimeout,
		attemptTimeout: d.ShardAttemptTimeout, brk: d.ShardBreaker, probeInterval: d.ShardProbeInterval,
		resultCache: d.ResultCache,
	}
}

// scanConfig is the scan configuration classifications run under: Scan
// with the detector's similarity options.
func (d *Detector) scanConfig() scan.Config {
	cfg := d.Scan
	cfg.Sim = d.SimOpts
	return cfg
}

// sharded reports whether scans go through the scatter–gather layer.
func (d *Detector) sharded() bool { return len(d.ShardAddrs) > 0 }

// engine returns a scanner over the current repository snapshot,
// rebuilding it only when the repository version or the detector
// configuration has changed since the last call. The returned entry
// slice is the snapshot the scanner indexes into.
func (d *Detector) engine() (repoScanner, []Entry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ver, n := d.Repo.stamp()
	k := d.key()
	if d.eng != nil && d.engVer == ver && d.engKey == k && len(d.engEntries) == n {
		d.Telemetry.Inc(telemetry.DetectEngineReuses)
		return d.eng, d.engEntries, nil
	}
	d.Telemetry.Inc(telemetry.DetectEngineRebuilds)
	entries, ver := d.Repo.snapshot()
	models := make([]*model.CSTBBS, len(entries))
	for i, e := range entries {
		models[i] = e.BBS
	}
	cfg := d.scanConfig()
	cfg.Cache = d.Repo.distCache()
	cfg.Telemetry = d.Telemetry
	// The repository cache outlives any one engine, so registering its
	// gauges on every rebuild is idempotent by name.
	d.Telemetry.RegisterGauges("distcache", cfg.Cache.TelemetryGauges)
	repo := d.Repo
	d.Telemetry.RegisterGauges("repository", func() map[string]uint64 {
		return map[string]uint64{"entries": uint64(repo.Len())}
	})
	sc, co, err := d.buildScanner(models, cfg, ver)
	if err != nil {
		return nil, nil, fmt.Errorf("detect: building sharded scanner: %w", err)
	}
	if d.ResultCache > 0 {
		sc = d.wrapCached(sc, ver, k.sem)
	}
	// The outgoing coordinator's background prober must not outlive the
	// engine it served.
	d.engCoord.Close()
	d.eng, d.engCoord = sc, co
	d.engEntries, d.engVer, d.engKey = entries, ver, k
	return d.eng, d.engEntries, nil
}

// Close releases the detector's background resources — today the
// health prober of a replicated remote-shard engine. Idempotent; a
// closed detector may keep classifying (the next engine rebuild starts
// a fresh prober), so Close belongs at detector end-of-life or right
// before dropping the last reference.
func (d *Detector) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.engCoord.Close()
	d.engCoord = nil
}

// ShardBreakerStates reports each remote replica backend's circuit
// breaker state, keyed by address. Empty when the current engine is not
// a replicated remote fleet (or no engine is built yet).
func (d *Detector) ShardBreakerStates() map[string]breaker.State {
	d.mu.Lock()
	co := d.engCoord
	d.mu.Unlock()
	if co == nil {
		return nil
	}
	return co.BreakerStates()
}

// wrapCached layers the verdict result cache over the scan backend.
// The cache instance persists across engine rebuilds (repository
// version changes make stale entries unreachable by key, so no flush
// is needed); it is rebuilt only when its capacity or the telemetry
// collector changes. Caller holds d.mu.
func (d *Detector) wrapCached(sc repoScanner, ver uint64, sem scan.Semantics) repoScanner {
	if d.vc == nil || d.vcCap != d.ResultCache || d.vcTel != d.Telemetry {
		d.vc = vcache.New(d.ResultCache, d.Telemetry)
		d.vcCap, d.vcTel = d.ResultCache, d.Telemetry
	}
	d.Telemetry.RegisterGauges("vcache", d.vc.TelemetryGauges)
	return &cachedScanner{inner: sc, cache: d.vc, ver: ver, sem: sem}
}

// cachedScanner memoizes whole scan outcomes behind the repoScanner
// seam, so every classification entry point — direct, streaming,
// served, windowed — shares one result cache without knowing it exists.
type cachedScanner struct {
	inner repoScanner
	cache *vcache.Cache
	ver   uint64
	sem   scan.Semantics
}

// ScanCtx serves a memoized match list when one exists, else runs the
// inner scan and stores the outcome. A failed scan — including a
// degraded sharded scan returning partial matches alongside a
// *shard.PartialError — is passed through and never cached.
func (s *cachedScanner) ScanCtx(ctx context.Context, bbs *model.CSTBBS) ([]scan.Match, error) {
	key := vcache.Key{Target: vcache.TargetHash(bbs), Version: s.ver, Semantics: s.sem}
	v, _, err := s.cache.Do(ctx, key, func() (vcache.Value, bool, error) {
		ms, err := s.inner.ScanCtx(ctx, bbs)
		return vcache.Value{Matches: ms}, err == nil, err
	})
	// On a compute error Do returns the callback's matches verbatim, so
	// a degraded sharded scan keeps its usable partial matches here.
	return v.Matches, err
}

// buildScanner constructs the scan backend the configuration asks for:
// a single engine (the default) or a remote-shard coordinator (co is
// the coordinator when sharded, nil otherwise). A coordinator registers
// its per-shard stats as the "shards" telemetry gauge source and its
// per-backend breaker state as "breakers".
func (d *Detector) buildScanner(models []*model.CSTBBS, cfg scan.Config, ver uint64) (repoScanner, *shard.Coordinator, error) {
	if !d.sharded() {
		return scan.New(models, cfg), nil, nil
	}
	co, err := shard.NewRemoteCoordinator(models, d.ShardAddrs, cfg.Semantics(),
		shard.RemoteConfig{Telemetry: d.Telemetry, Version: ver},
		shard.Config{
			ShardTimeout:   d.ShardTimeout,
			AttemptTimeout: d.ShardAttemptTimeout,
			Breaker:        d.ShardBreaker,
			ProbeInterval:  d.ShardProbeInterval,
			Telemetry:      d.Telemetry,
		})
	if err != nil {
		return nil, nil, err
	}
	d.Telemetry.RegisterGauges("shards", co.TelemetryGauges)
	d.Telemetry.RegisterGauges("breakers", co.BreakerGauges)
	return co, co, nil
}

// NewDetector returns a detector with the paper's defaults.
func NewDetector(repo *Repository) *Detector {
	return &Detector{
		Repo:         repo,
		Threshold:    DefaultThreshold,
		ModelCfg:     model.DefaultConfig(),
		SimOpts:      similarity.DefaultOptions(),
		RequireTimer: true,
	}
}

// benignResult is the explicit outcome for targets that never reach the
// similarity comparison: gated-out models and scans of an empty
// repository. Best names the benign family directly so callers reading
// Best.Family without checking Matches still get a truthful answer.
func benignResult() Result {
	return Result{
		Predicted: attacks.FamilyBenign,
		Best:      Match{Family: attacks.FamilyBenign},
	}
}

// BenignResult returns the explicit benign outcome used for targets
// that never reach the similarity comparison, for callers (the
// sliding-window detector) that synthesize benign verdicts — e.g. for
// quiet windows — and want them shaped exactly like gated ones.
func BenignResult() Result { return benignResult() }

// Gate reasons returned by GateReason.
const (
	// GateModelTooShort: the CST-BBS has fewer than MinModelLen
	// transitions — too little cache behavior to be an attack.
	GateModelTooShort = "model-too-short"
	// GateNoTimerReads: RequireTimer is set and the target never read a
	// timer — no measurement channel, hence no CSCA.
	GateNoTimerReads = "no-timer-reads"
)

// GateReason names the prerequisite that bars bbs from the similarity
// comparison, or "" when none does. Callers that surface
// benign-with-reason verdicts (the sliding-window detector, serve's
// window mode) use it to report why a target was benign by construction
// without duplicating the gate logic.
func (d *Detector) GateReason(bbs *model.CSTBBS) string {
	if bbs.Len() < MinModelLen {
		return GateModelTooShort
	}
	if d.RequireTimer && bbs.TimerReads == 0 {
		return GateNoTimerReads
	}
	return ""
}

// gated reports whether the target is benign by construction, before
// any repository comparison.
func (d *Detector) gated(bbs *model.CSTBBS) bool {
	return d.GateReason(bbs) != ""
}

// assemble turns the positional scan matches into a Result: named,
// sorted best-first (equal scores keep their order in ms, i.e.
// repository order) and thresholded. Scores are 1/(D+1), never NaN, so
// cmp.Compare orders them exactly as the > comparison the serial
// reference sorts by. The sort permutes 4-byte positions with the
// position as tiebreak — the order a stable sort gives, at about a
// third of the cost of stably sorting the 48-byte Matches (500 entries:
// ~55 µs against ~155 µs), which is most of a cached verdict.
func (d *Detector) assemble(entries []Entry, ms []scan.Match) Result {
	res := benignResult()
	if len(ms) == 0 {
		return res
	}
	pos := make([]int32, len(ms))
	for i := range pos {
		pos[i] = int32(i)
	}
	slices.SortFunc(pos, func(a, b int32) int {
		if c := cmp.Compare(ms[b].Score, ms[a].Score); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	res.Matches = make([]Match, len(ms))
	for i, p := range pos {
		m := ms[p]
		e := entries[m.Index]
		res.Matches[i] = Match{Name: e.Name, Family: e.Family, Score: m.Score, Pruned: m.Pruned}
	}
	res.Best = res.Matches[0]
	if res.Best.Score >= d.Threshold {
		res.Predicted = res.Best.Family
	}
	return res
}

// withTimeout derives the per-classification deadline context when
// Timeout is set; the returned cancel is always safe to call.
func (d *Detector) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if d.Timeout > 0 {
		return context.WithTimeout(ctx, d.Timeout)
	}
	return ctx, func() {}
}

// noteCtxErr counts context-caused failures so cancellations are
// visible in telemetry, and passes err through.
func (d *Detector) noteCtxErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		d.Telemetry.Inc(telemetry.DetectCancellations)
	}
	return err
}

// ClassifyBBS scores a pre-built behavior model against the repository.
// An empty repository, like a gated-out target, yields an explicitly
// benign result with no matches.
//
// On a sharded repository with failing shards this API degrades
// silently: the result covers the surviving shards' entries and the
// shard_degraded_scans telemetry counter records the gap. Use
// ClassifyBBSCtx to receive the *shard.PartialError alongside the
// partial result instead.
func (d *Detector) ClassifyBBS(bbs *model.CSTBBS) Result {
	res, err := d.classifyBBSCtx(context.Background(), bbs)
	if err != nil && !isPartial(err) {
		// No cancellation is possible on a background context; the
		// error is a recovered scan panic and this API's contract is to
		// crash loudly.
		_ = panicsafe.Repanic(err)
		panic(err)
	}
	return res
}

// isPartial reports whether err is a degraded-but-usable sharded scan.
func isPartial(err error) bool {
	var pe *shard.PartialError
	return errors.As(err, &pe)
}

// recoverPanic, deferred directly by the context-aware classification
// entry points, turns a panic anywhere in the calling classification
// into a *panicsafe.PanicError in *err and counts it once under
// panics_recovered. Scan-worker panics are recovered and counted inside
// the engine and arrive here as ordinary errors, so they are not
// counted again.
func (d *Detector) recoverPanic(err *error) {
	if r := recover(); r != nil {
		d.Telemetry.Inc(telemetry.PanicsRecovered)
		*err = &panicsafe.PanicError{Value: r, Stack: debug.Stack()}
	}
}

// ClassifyBBSCtx is ClassifyBBS with cooperative cancellation and panic
// recovery: a cancelled or expired context (including the detector's
// per-classification Timeout) aborts the scan promptly, and a panic
// while scoring comes back as a *panicsafe.PanicError instead of
// crashing the process. On a non-nil error the Result is meaningless —
// with one exception: a *shard.PartialError (failing shards on a
// sharded repository) comes back WITH a usable Result covering the
// surviving shards' entries, and the caller decides whether a partial
// verdict is acceptable.
func (d *Detector) ClassifyBBSCtx(ctx context.Context, bbs *model.CSTBBS) (res Result, err error) {
	defer d.recoverPanic(&err)
	ctx, cancel := d.withTimeout(ctx)
	defer cancel()
	return d.classifyBBSCtx(ctx, bbs)
}

// classifyBBSCtx is the shared scan path; it does not reapply Timeout.
func (d *Detector) classifyBBSCtx(ctx context.Context, bbs *model.CSTBBS) (Result, error) {
	d.Telemetry.Inc(telemetry.DetectClassifications)
	if d.gated(bbs) {
		d.Telemetry.Inc(telemetry.DetectGated)
		return benignResult(), nil
	}
	eng, entries, err := d.engine()
	if err != nil {
		return Result{}, err
	}
	ms, err := eng.ScanCtx(ctx, bbs)
	if err != nil {
		if isPartial(err) {
			return d.assemble(entries, ms), err
		}
		return Result{}, d.noteCtxErr(err)
	}
	return d.assemble(entries, ms), nil
}

// Classify models the target program (optionally alongside a victim
// workload) and scores it against the repository. When a Telemetry
// collector is attached, the modeling stage inherits it, so one run
// yields both the model-side and scan-side wall times. Classify always
// models, so its Model is always complete; only ClassifyCtx consults
// the program keys of the result cache.
func (d *Detector) Classify(prog *isa.Program, victim *isa.Program) (Result, *model.Model, error) {
	m, err := d.buildModel(context.Background(), prog, victim)
	if err != nil {
		return Result{}, nil, err
	}
	return d.ClassifyBBS(m.BBS), m, nil
}

// buildModel models a target under ModelCfg, with the detector's
// Telemetry when ModelCfg has none. A context error comes back bare;
// any other failure is named after the target.
func (d *Detector) buildModel(ctx context.Context, prog, victim *isa.Program) (*model.Model, error) {
	cfg := d.ModelCfg
	if cfg.Telemetry == nil {
		cfg.Telemetry = d.Telemetry
	}
	m, err := model.BuildCtx(ctx, prog, victim, cfg)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("detect: modeling target %s: %w", progName(prog), err)
	}
	return m, err
}

// ClassifyCtx is Classify with cooperative cancellation, a
// per-classification deadline and panic recovery: the one per-target
// call every front end runs. When the detector's Timeout is set, each
// call gets its own deadline covering both the modeling and the scan
// stage. Cancellation is observed at stage boundaries inside modeling
// and between work items inside the scan; a panic anywhere in modeling
// or scanning surfaces as a *panicsafe.PanicError. On a non-nil error
// the Result is meaningless (the Model may still be non-nil when
// modeling succeeded and the scan failed).
//
// With ResultCache set, a target classified before under the same
// repository version, scan semantics and ModelCfg is answered from the
// cache without modeling (see vcache.ProgramHash for what "the same
// target" covers). The Model returned then has only Name and BBS set,
// every other field nil, and its BBS is shared with the cache and must
// not be modified; a call that models returns the whole Model as
// before. Every caller in this module reads only the BBS.
func (d *Detector) ClassifyCtx(ctx context.Context, prog *isa.Program, victim *isa.Program) (res Result, m *model.Model, err error) {
	defer d.recoverPanic(&err)
	ctx, cancel := d.withTimeout(ctx)
	defer cancel()
	if d.ResultCache > 0 {
		// Without an engine there is no version to key on; the uncached
		// path below reports the engine error only if the target is not
		// gated, as it always has.
		if eng, entries, eerr := d.engine(); eerr == nil {
			if cs, ok := eng.(*cachedScanner); ok {
				return d.classifyCached(ctx, cs, entries, prog, victim)
			}
		}
	}
	m, err = d.buildModel(ctx, prog, victim)
	if err != nil {
		return Result{}, nil, d.noteCtxErr(err)
	}
	res, err = d.classifyBBSCtx(ctx, m.BBS)
	if err != nil && !isPartial(err) {
		return Result{}, m, err
	}
	// A *shard.PartialError keeps its usable partial Result, exactly
	// like ClassifyBBSCtx — callers choose whether degraded is enough.
	return res, m, err
}

// classifyCached is ClassifyCtx behind the program key. A miss models
// the target and, unless the gate bars it, scans it through cs — the
// model key, which may still hit — then stores the CST-BBS and the
// matches under the program key; a gated target is stored with no
// matches. A hit gates the memoized CST-BBS again and assembles its
// matches against entries, the snapshot of the key's version. Errors
// and partial results are returned, never stored.
func (d *Detector) classifyCached(ctx context.Context, cs *cachedScanner, entries []Entry, prog, victim *isa.Program) (Result, *model.Model, error) {
	var built *model.Model
	key := vcache.Key{Program: true, Target: vcache.ProgramHash(prog, victim, d.ModelCfg), Version: cs.ver, Semantics: cs.sem}
	v, _, err := cs.cache.Do(ctx, key, func() (vcache.Value, bool, error) {
		m, err := d.buildModel(ctx, prog, victim)
		if err != nil {
			return vcache.Value{}, false, err
		}
		built = m
		if d.gated(m.BBS) {
			return vcache.Value{BBS: m.BBS}, true, nil
		}
		ms, err := cs.ScanCtx(ctx, m.BBS)
		return vcache.Value{BBS: m.BBS, Matches: ms}, err == nil, err
	})
	if v.BBS == nil {
		// Modeling failed, or the wait for another caller's modeling
		// was cancelled.
		return Result{}, nil, d.noteCtxErr(err)
	}
	m := built
	if m == nil {
		m = &model.Model{Name: v.BBS.Name, BBS: v.BBS}
	}
	d.Telemetry.Inc(telemetry.DetectClassifications)
	if d.gated(v.BBS) {
		d.Telemetry.Inc(telemetry.DetectGated)
		return benignResult(), m, nil
	}
	if built == nil && err == nil && v.Matches == nil {
		// A hit stored while the gate was stricter (RequireTimer is not
		// part of the key): scan it now, through the model key.
		v.Matches, err = cs.ScanCtx(ctx, v.BBS)
	}
	if err != nil && !isPartial(err) {
		return Result{}, m, d.noteCtxErr(err)
	}
	return d.assemble(entries, v.Matches), m, err
}

func progName(p *isa.Program) string {
	if p == nil {
		return "<nil>"
	}
	return p.Name
}
