// Package scaguard is the public facade of the SCAGuard reproduction —
// detection and classification of cache side-channel attacks via attack
// behavior modeling and similarity comparison (Wang, Bu, Song; DAC 2023).
//
// The library models a target binary's attack behavior as a cache state
// transition enhanced basic block sequence (CST-BBS) and compares it
// against a repository of models built from proof-of-concept attacks
// using an adapted Dynamic Time Warping similarity. Everything runs on a
// built-in machine simulator (ISA interpreter + multi-level cache +
// branch predictor with transient execution), so the full pipeline —
// including genuinely working Flush+Reload, Prime+Probe and Spectre
// PoCs — is reproducible on any host.
//
// Typical use:
//
//	det, _ := scaguard.NewDetector()
//	poc := scaguard.MustAttack("FR-Mastik")   // an "unknown" variant
//	res, _, _ := det.Classify(poc.Program, poc.Victim)
//	fmt.Println(res.Predicted, res.Best.Score)
package scaguard

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/breaker"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/panicsafe"
	"repro/internal/scan"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/similarity"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// Core re-exported types. Program is the binary representation every
// pipeline stage consumes; Model/CSTBBS are the attack behavior model;
// Result is a classification outcome. ScanConfig tunes the repository
// scan engine behind Detector.Scan — worker-pool size and early
// abandoning (see docs/PERFORMANCE.md).
type (
	Program    = isa.Program
	Model      = model.Model
	CSTBBS     = model.CSTBBS
	Result     = detect.Result
	Match      = detect.Match
	Repository = detect.Repository
	Detector   = detect.Detector
	ScanConfig = scan.Config
	Family     = attacks.Family
	PoC        = attacks.PoC
)

// Telemetry re-exports the runtime instrumentation layer
// (internal/telemetry): attach a collector to Detector.Telemetry and
// the whole pipeline — modeling stages, repository scans, pruning
// decisions, DistCache hit rates — records into it. A nil collector
// disables instrumentation at zero cost. See docs/OBSERVABILITY.md.
type (
	Telemetry         = telemetry.Collector
	TelemetrySnapshot = telemetry.Snapshot
)

// NewTelemetry returns an empty telemetry collector.
func NewTelemetry() *Telemetry { return telemetry.NewCollector() }

// ServeTelemetry exposes a collector's live JSON snapshot over HTTP at
// /metrics; it returns the bound address (addr may use port 0) and a
// shutdown func.
func ServeTelemetry(addr string, c *Telemetry) (bound string, shutdown func() error, err error) {
	return telemetry.Serve(addr, c)
}

// Attack family labels.
const (
	FamilyFlushReload  = attacks.FamilyFR
	FamilyPrimeProbe   = attacks.FamilyPP
	FamilySpectreFR    = attacks.FamilySFR
	FamilySpectrePP    = attacks.FamilySPP
	FamilyBenign       = attacks.FamilyBenign
	DefaultThreshold   = detect.DefaultThreshold
	MinimumModelLength = detect.MinModelLen
)

// BuildModel models the attack behavior of a program; victim may be nil.
func BuildModel(prog, victim *Program) (*Model, error) {
	return model.Build(prog, victim, model.DefaultConfig())
}

// Score compares two behavior models and returns the similarity score
// 1/(D+1) in [0,1].
func Score(a, b *CSTBBS) float64 {
	return similarity.Score(a, b, similarity.DefaultOptions())
}

// AlignedPair re-exports the warping-path step type for explanations.
type AlignedPair = similarity.AlignedPair

// Align returns the normalized distance between two models together
// with the optimal block alignment — which blocks of a matched which
// blocks of b at what cost.
func Align(a, b *CSTBBS) (float64, []AlignedPair) {
	return similarity.Align(a, b, similarity.DefaultOptions())
}

// NewDetector builds a detector whose repository holds one canonical PoC
// model per attack family — the paper's deployment configuration.
func NewDetector() (*Detector, error) {
	pocs := []attacks.PoC{}
	for _, name := range []string{"FR-IAIK", "PP-IAIK", "S-FR-Idea", "S-PP-Trippel"} {
		poc, err := attacks.ByName(name, attacks.DefaultParams())
		if err != nil {
			return nil, err
		}
		pocs = append(pocs, poc)
	}
	repo, err := detect.BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return detect.NewDetector(repo), nil
}

// NewDetectorFromPoCs builds a detector from caller-selected PoCs.
func NewDetectorFromPoCs(pocs []PoC) (*Detector, error) {
	repo, err := detect.BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return detect.NewDetector(repo), nil
}

// AttackNames lists the canonical PoCs of Table II.
func AttackNames() []string { return attacks.Names() }

// ExtensionNames lists the beyond-Table-II PoCs (Meltdown-type,
// Evict+Time), addressable through Attack like the canonical corpus.
func ExtensionNames() []string { return attacks.ExtensionNames() }

// Attack builds a canonical PoC by name with default parameters.
func Attack(name string) (PoC, error) {
	return attacks.ByName(name, attacks.DefaultParams())
}

// MustAttack is Attack that panics on unknown names.
func MustAttack(name string) PoC {
	poc, err := Attack(name)
	if err != nil {
		panic(err)
	}
	return poc
}

// Families lists the four attack families.
func Families() []Family { return attacks.Families() }

// BenignKinds lists the Table III benign families.
func BenignKinds() []string {
	kinds := benign.Kinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}

// BenignTemplates lists the templates of one benign kind.
func BenignTemplates(kind string) []string {
	return benign.Templates(benign.Kind(kind))
}

// GenerateBenign builds a benign program from kind, template and seed.
func GenerateBenign(kind, template string, seed int64) (*Program, error) {
	return benign.Generate(benign.Spec{Kind: benign.Kind(kind), Template: template, Seed: seed})
}

// RandomBenign draws a random benign program of a kind.
func RandomBenign(kind string, seed int64) (*Program, error) {
	return benign.Random(benign.Kind(kind), rand.New(rand.NewSource(seed)))
}

// MutateVariant produces a semantics-preserving mutated variant of a
// program (the corpus-expansion transformation of Table II).
func MutateVariant(p *Program, seed int64) (*Program, error) {
	return mutate.Mutate(p, mutate.LightConfig(seed))
}

// ObfuscateVariant produces a polymorphic junk-code-obfuscated variant
// (the E4 robustness transformation).
func ObfuscateVariant(p *Program, seed int64) (*Program, error) {
	return mutate.Mutate(p, mutate.ObfuscationConfig(seed))
}

// StandardDataset assembles the Tables II+III corpus with n samples per
// class under the given seed.
func StandardDataset(n int, seed int64) (*dataset.Dataset, error) {
	return dataset.Standard(dataset.Config{PerClass: n, Seed: seed})
}

// SaveRepository writes a detector's model repository as JSON, the
// deployment artefact of Section III-B3.
func SaveRepository(repo *Repository, w io.Writer) error { return repo.Save(w) }

// LoadRepository reads a repository saved with SaveRepository.
func LoadRepository(r io.Reader) (*Repository, error) { return detect.LoadRepository(r) }

// NewDetectorFromRepository wraps a (possibly loaded) repository with
// default detector settings.
func NewDetectorFromRepository(repo *Repository) *Detector {
	return detect.NewDetector(repo)
}

// ParseProgram assembles a textual ISA program (see internal/isa.Parse
// for the syntax) so downstream users can classify their own programs:
//
//	prog, _ := scaguard.ParseProgram("mine", src)
//	res, _, _ := det.Classify(prog, nil)
//
// Input is resource-limited; oversized programs fail with an
// *isa.LimitError before any memory is committed.
func ParseProgram(name, src string) (*Program, error) {
	return isa.Parse(name, src)
}

// Streaming classification (internal/stream): targets arrive on a
// channel and one StreamResult per target comes back in arrival order,
// with per-target fault isolation — a panic or error in one target
// becomes an error result while the rest classify normally. See
// docs/ROBUSTNESS.md for the full contract (cancellation, backpressure,
// the drain obligation).
type (
	StreamTarget = stream.Target
	StreamResult = stream.Result
)

// ClassifyStream runs the detector's streaming pipeline over in, on
// workers concurrent classifications (<= 0 selects GOMAXPROCS), until
// in closes or ctx is cancelled. The caller must drain the returned
// channel until it closes.
func ClassifyStream(ctx context.Context, det *Detector, in <-chan StreamTarget, workers int) <-chan StreamResult {
	return stream.Classify(ctx, det, in, workers)
}

// PanicError re-exports the recovered-panic error carried by ctx-aware
// APIs and stream results; detect it with errors.As or AsPanicError.
type PanicError = panicsafe.PanicError

// AsPanicError unwraps err to a *PanicError when one is in its chain.
func AsPanicError(err error) (*PanicError, bool) { return panicsafe.AsPanic(err) }

// Sharded repository scan (internal/shard): partition the repository
// across remote shard servers (Detector.ShardAddrs, each one ServeShard
// or `scaguard shard-serve`) and scan them as one, with the running
// global best broadcast across shards so pruned scans early-abandon
// across shard boundaries. Exact-mode classification is
// bit-identical to the single-engine scan; a failing shard degrades a
// classification to a *ShardPartialError plus the surviving shards'
// matches. Repeated targets are served from memory in the client
// process, where the verdict is assembled: Detector.ResultCache
// memoizes whole scan outcomes (internal/vcache) in front of whichever
// scan backend is configured, so shard servers hold no result cache of
// their own. See docs/SHARDING.md.
type (
	ShardPartialError = shard.PartialError
	ShardServerConfig = shard.ServerConfig
	// BreakerSettings tunes the per-replica circuit breakers of a
	// replicated shard fleet (Detector.ShardBreaker); see
	// internal/breaker and docs/ROBUSTNESS.md.
	BreakerSettings = breaker.Settings
)

// ServeShard hosts one shard of a repository over HTTP: the slice shard
// `index` of `shards`, derived from the repository the same way every
// client derives it. It returns the bound address (addr may use port 0)
// and a shutdown func. This is what `scaguard shard-serve` runs.
func ServeShard(repo *Repository, shards, index int, addr string, cfg ShardServerConfig) (bound string, shutdown func(context.Context) error, err error) {
	if index < 0 || index >= shards {
		return "", nil, fmt.Errorf("scaguard: shard index %d out of range for %d shards", index, shards)
	}
	models := make([]*CSTBBS, len(repo.Entries))
	for i, e := range repo.Entries {
		models[i] = e.BBS
	}
	slice := shard.ShardModels(models, shard.Router{Shards: shards}, index)
	if cfg.Version == 0 {
		// Advertise the repository version on /healthz so coordinators
		// built over a different repository state can spot the skew.
		cfg.Version = repo.Version()
	}
	return shard.NewServer(slice, cfg).Serve(addr)
}

// Detection-as-a-service front end (internal/serve): a long-lived
// HTTP/JSON server fronting a detector — and through it, optionally, a
// shard fleet — for many concurrent clients, with per-key admission
// control (429 + Retry-After under overload), zero-downtime repository
// hot-reload (POST /reload) and graceful drain. This is what `scaguard
// serve` runs; the endpoint reference and operator guide are in
// docs/SERVING.md.
type (
	ServeConfig     = serve.Config
	DetectionServer = serve.Server
	ServeTargetSpec = serve.TargetSpec
	ServeVerdict    = serve.Verdict
)

// NewDetectionServer builds the detection service from cfg
// (cfg.Detector is required). Expose it with Serve or mount Handler
// yourself; stop it with Shutdown, which drains in-flight requests.
func NewDetectionServer(cfg ServeConfig) *DetectionServer { return serve.New(cfg) }

// Online sliding-window detection (internal/window): instead of
// modeling a finished trace once, consume its events as they happen,
// model each time window with the incremental CST-BBS builder, and
// classify every window through the unchanged detector seam — verdicts
// stream out mid-trace, so an in-flight attack is flagged before the
// run ends. This is what `scaguard watch` and the detection service's
// mode=window stream run. See docs/WINDOWING.md.
type (
	WindowConfig  = window.Config
	WindowVerdict = window.Verdict
	WindowOutcome = window.Outcome
)

// Default sliding-window geometry (WindowConfig zero values).
const (
	DefaultWindowSize   = window.DefaultSize
	DefaultWindowStride = window.DefaultStride
)

// Watch runs prog (with an optional victim) on a fresh default machine
// and streams its events into an online sliding-window detector while
// it runs; no event log is kept. emit receives one verdict per window,
// in stream order, as each window closes during the run; the
// returned outcome carries the aggregate verdict and the
// latency-to-detection metric.
func Watch(ctx context.Context, det *Detector, prog, victim *Program, cfg WindowConfig, emit func(WindowVerdict)) (WindowOutcome, error) {
	return window.Watch(ctx, det, prog, victim, exec.DefaultConfig(), cfg, emit)
}

// CheckShardFleet handshakes every replica of every shard address
// against the partition of repo it should serve: alive, the agreed
// entry count and the partition's content fingerprint, so a replica
// started over a different repository file is caught before the first
// scan. It returns the names of unhealthy replicas (empty when the
// whole fleet is healthy) and a non-nil error only when some partition
// has no healthy replica at all — the condition under which
// classifications would degrade to partial results. A fleet with dead
// or stale but redundant replicas starts fine: failover covers it, and
// the returned names let the caller warn the operator. This is the
// handshake `scaguard classify` and `scaguard serve -shard-addrs` run
// at startup.
func CheckShardFleet(ctx context.Context, repo *Repository, addrs []string) (unhealthy []string, err error) {
	models := make([]*CSTBBS, len(repo.Entries))
	for i, e := range repo.Entries {
		models[i] = e.BBS
	}
	return shard.CheckFleet(ctx, models, addrs)
}
