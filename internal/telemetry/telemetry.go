// Package telemetry is the runtime instrumentation layer of the
// detection pipeline. The scan engine's pruning decisions, the
// detector's engine-cache behavior and the per-stage wall times of
// modeling vs scanning are all invisible from the outside — benchmarks
// can measure them offline, but a deployment watching live traffic
// cannot. This package makes them observable at a cost low enough for
// the hot path:
//
//   - Counters are fixed-index atomic uint64s — no maps, no labels, no
//     allocation on the increment path.
//   - Latencies go into log2-bucketed histograms (atomic buckets plus
//     count/sum/min/max), again allocation-free.
//   - Gauge sources (e.g. the scan DistCache's hit counters) register a
//     read callback and are polled only when a snapshot is taken.
//
// Everything hangs off a *Collector. A nil *Collector is the disabled
// state: every method nil-checks the receiver and returns immediately,
// so uninstrumented configurations pay one predictable branch per call
// site and nothing else. Timing call sites use the Now/ObserveSince
// pair, which skips the time.Now() syscall entirely when disabled.
//
// Snapshot() assembles a consistent-enough view for export: counters
// are read atomically one by one (each value is exact; sums across
// counters may be mid-update by design), histograms likewise. Handler
// and Serve (http.go) take snapshots out of the process as JSON or
// Prometheus text, and Snapshot.WriteReport prints one for a human.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter indexes one atomic event counter. The enum is the schema:
// adding a counter means adding an index and a name here, nothing else.
type Counter int

// Pipeline counters. Scan* count (target, entry) comparison outcomes —
// every comparison resolves to exactly one of Exact, LowerBoundSkipped
// or Abandoned, so their sum is the number of comparisons and
// (LowerBoundSkipped+Abandoned)/sum is the pruning rate.
const (
	// ScanTargets counts targets scanned against the repository.
	ScanTargets Counter = iota
	// ScanEntriesExact counts entry comparisons that ran the full DTW
	// and produced an exact score.
	ScanEntriesExact
	// ScanEntriesLowerBoundSkipped counts cascade tier-3 skips: entries
	// pruned before any DTW by the exact per-row bound
	// (similarity.LowerBound) after tiers 1 and 2 failed to prune them.
	// The cheaper tiers count under ScanEntriesKimSkipped /
	// ScanEntriesKeoghSkipped.
	ScanEntriesLowerBoundSkipped
	// ScanEntriesKimSkipped counts cascade tier-1 skips: entries pruned
	// by the O(1) aggregate bound (similarity.LowerBoundKim) before any
	// per-row work.
	ScanEntriesKimSkipped
	// ScanEntriesKeoghSkipped counts cascade tier-2 skips: entries
	// pruned by the O(n+m) envelope bound (similarity.LowerBoundKeogh)
	// after tier 1 failed to prune them.
	ScanEntriesKeoghSkipped
	// ScanEntriesAbandoned counts entries whose DTW was abandoned
	// row-wise partway through (dtw.DistanceAbandonScratch proved the entry
	// cannot win).
	ScanEntriesAbandoned
	// DetectClassifications counts targets classified (including gated
	// ones).
	DetectClassifications
	// DetectGated counts targets short-circuited as benign by
	// construction (model too short, or no timer reads).
	DetectGated
	// DetectEngineRebuilds counts scan-engine rebuilds (repository
	// version or detector configuration changed).
	DetectEngineRebuilds
	// DetectEngineReuses counts classifications served by the cached
	// engine.
	DetectEngineReuses
	// ModelBuilds counts behavior models built.
	ModelBuilds
	// PanicsRecovered counts panics caught by scan work items, by the
	// detector's ctx classification calls and by serve's window mode,
	// and converted into error results instead of crashing the process.
	PanicsRecovered
	// DetectCancellations counts classifications aborted by context
	// cancellation or deadline expiry.
	DetectCancellations
	// StreamTargets counts targets entering the streaming pipeline.
	StreamTargets
	// StreamErrorResults counts stream targets that resolved to an
	// error result (resolution failure, panic, injected fault,
	// cancellation) rather than a verdict.
	StreamErrorResults
	// ShardScans counts per-shard scan calls issued by the coordinator:
	// one per (target, shard) scatter.
	ShardScans
	// ShardScanFailures counts shard scans that failed (timeout, every
	// replica dead, injected fault); each one degrades its scan to
	// partial results.
	ShardScanFailures
	// ShardCutoffBroadcasts counts cutoff updates pushed to remote
	// shards mid-scan — the cross-shard best-score broadcast doing its
	// job. Local shards share the cutoff cell directly and are not
	// counted.
	ShardCutoffBroadcasts
	// ShardDegradedScans counts coordinator scans that returned partial
	// results because at least one shard failed. One degraded scan
	// increments this exactly once no matter how many of its shards
	// died; ShardScanFailures counts the individual shard failures.
	ShardDegradedScans
	// ShardFailovers counts replica-group scans served by a non-first
	// choice: each increment is one replica passed over — because its
	// attempt failed or timed out, or because its circuit breaker was
	// open — with a later replica tried instead. A healthy fleet holds
	// this flat; a dead primary grows it once per scan until the backend
	// recovers and its breaker closes.
	ShardFailovers
	// BreakerOpens counts closed→open circuit-breaker transitions: a
	// backend hit its consecutive-failure threshold (or failed its
	// half-open probe) and is now quarantined from scans.
	BreakerOpens
	// BreakerHalfOpens counts open→half-open transitions: a quarantined
	// backend's open interval elapsed and one probe attempt (a scan or
	// the background health prober) was admitted.
	BreakerHalfOpens
	// BreakerCloses counts half-open→closed transitions: a probe
	// succeeded and the backend was re-admitted to scans.
	BreakerCloses
	// VCacheHits counts lookups served from the verdict result cache
	// (internal/vcache) without running any comparison — the memoized
	// outcome was reused. Program keys and model keys both count here.
	VCacheHits
	// VCacheMisses counts result-cache lookups that had to compute
	// (including lookups bypassed by an injected vcache.lookup fault). A
	// program that misses its program key and is then scanned counts
	// twice: once per key kind.
	VCacheMisses
	// VCacheEvictions counts result-cache entries dropped by the LRU
	// bound to make room for newer outcomes.
	VCacheEvictions
	// VCacheCollapsed counts concurrent identical scans collapsed onto
	// another caller's in-flight computation (singleflight): each
	// increment is one scan that waited instead of recomputing.
	VCacheCollapsed
	// VCacheProgramHits counts the vcache_hits and vcache_collapsed
	// lookups that were program keys: classifications answered before
	// modeling, which skipped the simulator as well as the scan.
	VCacheProgramHits
	// ServeRequests counts classification requests admitted by the
	// detection server (internal/serve): unary and batch /v1/classify
	// calls and /v1/classify/stream connections, after admission
	// control let them through.
	ServeRequests
	// ServeRejected counts requests shed by the server's admission gate
	// with 429 (per-key token bucket empty, global concurrency cap
	// saturated, or an injected serve.admit fault).
	ServeRejected
	// ServeReloads counts successful POST /reload repository hot-swaps.
	ServeReloads
	// IndexClustersSkipped counts repository-index clusters whose whole
	// membership was bypassed on cheap per-entry certificates (or, in
	// approximate mode, force-skipped past the MaxClusters budget)
	// because the cluster's triangle-inequality gate said it cannot
	// beat the running cutoff. See docs/INDEXING.md.
	IndexClustersSkipped
	// IndexClustersDescended counts repository-index clusters whose
	// members were scored through the full pruning cascade because the
	// cluster could still contain the best match.
	IndexClustersDescended
	// IndexRebuilds counts repository-index constructions, each a full
	// pairwise-MST build from scratch (one per indexed engine build).
	IndexRebuilds
	// WindowEmitted counts windows the sliding-window detector emitted a
	// verdict for — modelled and quiet/short windows alike.
	WindowEmitted
	// WindowHits counts emitted windows whose verdict was malicious.
	WindowHits
	// WindowQuiet counts emitted windows skipped without modeling
	// because they contained no events (quiet-gap windows included).
	WindowQuiet

	numCounters
)

var counterNames = [numCounters]string{
	ScanTargets:                  "scan_targets",
	ScanEntriesExact:             "scan_entries_exact",
	ScanEntriesLowerBoundSkipped: "scan_entries_lb_skipped",
	ScanEntriesKimSkipped:        "scan_entries_kim_skipped",
	ScanEntriesKeoghSkipped:      "scan_entries_keogh_skipped",
	ScanEntriesAbandoned:         "scan_entries_abandoned",
	DetectClassifications:        "detect_classifications",
	DetectGated:                  "detect_gated",
	DetectEngineRebuilds:         "detect_engine_rebuilds",
	DetectEngineReuses:           "detect_engine_reuses",
	ModelBuilds:                  "model_builds",
	PanicsRecovered:              "panics_recovered",
	DetectCancellations:          "detect_cancellations",
	StreamTargets:                "stream_targets",
	StreamErrorResults:           "stream_error_results",
	ShardScans:                   "shard_scans",
	ShardScanFailures:            "shard_scan_failures",
	ShardCutoffBroadcasts:        "shard_cutoff_broadcasts",
	ShardDegradedScans:           "shard_degraded_scans",
	ShardFailovers:               "shard_failovers",
	BreakerOpens:                 "breaker_opens",
	BreakerHalfOpens:             "breaker_half_opens",
	BreakerCloses:                "breaker_closes",
	VCacheHits:                   "vcache_hits",
	VCacheMisses:                 "vcache_misses",
	VCacheEvictions:              "vcache_evictions",
	VCacheCollapsed:              "vcache_collapsed",
	VCacheProgramHits:            "vcache_program_hits",
	ServeRequests:                "serve_requests",
	ServeRejected:                "serve_rejected",
	ServeReloads:                 "serve_reloads",
	IndexClustersSkipped:         "index_clusters_skipped",
	IndexClustersDescended:       "index_clusters_descended",
	IndexRebuilds:                "index_rebuilds",
	WindowEmitted:                "window_emitted",
	WindowHits:                   "window_hits",
	WindowQuiet:                  "window_quiet",
}

// String returns the counter's snapshot/export name.
func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterNames[c]
	}
	return "counter_unknown"
}

// Stage indexes one latency histogram.
type Stage int

// Pipeline stages. StageModel covers a whole model.Build; StageTrace,
// StageBBExtract and StageCST are its interior phases (simulation run,
// attack-relevant BB identification, CST measurement + flattening).
// StageScan is one target's repository scan pass.
const (
	StageModel Stage = iota
	StageTrace
	StageBBExtract
	StageCST
	StageScan
	// StageStreamTarget is one target's latency through the streaming
	// pipeline: intake to resolution, waiting for a worker, modeling
	// and scan included (head-of-line wait for ordered emission is
	// not).
	StageStreamTarget
	// StageShardScan is one shard's share of a scattered scan: the
	// coordinator observes each (target, shard) call, so the histogram's
	// spread is the straggler profile across shards.
	StageShardScan
	// StageServeRequest is one admitted request's end-to-end latency in
	// the detection server: admission to response written, resolution,
	// modeling and scan included (streaming connections observe the
	// whole connection).
	StageServeRequest
	// StageWindowModel is one window's modeling cost in the sliding-
	// window detector: event replay plus the incremental CST-BBS build,
	// scan excluded (that lands in StageScan via the detector seam).
	StageWindowModel

	numStages
)

var stageNames = [numStages]string{
	StageModel:        "model_build",
	StageTrace:        "model_trace",
	StageBBExtract:    "model_bb_extract",
	StageCST:          "model_cst_sim",
	StageScan:         "scan",
	StageStreamTarget: "stream_target",
	StageShardScan:    "shard_scan",
	StageServeRequest: "serve_request",
	StageWindowModel:  "window_model",
}

// String returns the stage's snapshot/export name.
func (s Stage) String() string {
	if s >= 0 && s < numStages {
		return stageNames[s]
	}
	return "stage_unknown"
}

// histBuckets is the number of log2 latency buckets. Bucket i counts
// observations with duration < 2^i microseconds (the last bucket is a
// catch-all), spanning 1µs .. ~34s — wider than any pipeline stage.
const histBuckets = 26

// histogram is an allocation-free latency histogram: log2 buckets over
// microseconds plus count/sum/min/max, all atomics.
type histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	minNS   atomic.Uint64 // valid only when count > 0
	maxNS   atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d.Nanoseconds())
	h.count.Add(1)
	h.sumNS.Add(ns)
	// bits.Len64 of the duration in whole microseconds is its log2
	// bucket: <1µs lands in bucket 0, [2^(i-1), 2^i) µs in bucket i.
	b := bits.Len64(ns / 1000)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.minNS.Load()
		if (old != 0 && ns >= old) || h.minNS.CompareAndSwap(old, ns) {
			break
		}
	}
}

// GaugeFunc reads a set of named gauge values at snapshot time.
type GaugeFunc func() map[string]uint64

// Collector accumulates pipeline telemetry. All methods are safe for
// concurrent use, and all methods are no-ops on a nil receiver — a nil
// *Collector is how instrumentation is disabled.
type Collector struct {
	counters [numCounters]atomic.Uint64
	stages   [numStages]histogram

	mu     sync.Mutex
	gauges map[string]GaugeFunc
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Inc adds one to a counter.
func (c *Collector) Inc(k Counter) { c.Add(k, 1) }

// Add adds n to a counter.
func (c *Collector) Add(k Counter, n uint64) {
	if c == nil {
		return
	}
	c.counters[k].Add(n)
}

// Counter returns the current value of a counter.
func (c *Collector) Counter(k Counter) uint64 {
	if c == nil {
		return 0
	}
	return c.counters[k].Load()
}

// Now returns the current time, or the zero time on a disabled
// collector — the Now/ObserveSince pair keeps the time.Now() call off
// the disabled fast path.
func (c *Collector) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records time.Since(start) into a stage histogram. It is
// the companion of Now: a zero start (disabled collector, but also any
// caller that skipped timing) records nothing.
func (c *Collector) ObserveSince(s Stage, start time.Time) {
	if c == nil || start.IsZero() {
		return
	}
	c.stages[s].observe(time.Since(start))
}

// RegisterGauges attaches a named gauge source, polled at snapshot
// time. Registering the same name again replaces the source, so
// re-wiring (e.g. a detector rebuilding its engine) is idempotent.
func (c *Collector) RegisterGauges(name string, fn GaugeFunc) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gauges == nil {
		c.gauges = make(map[string]GaugeFunc)
	}
	c.gauges[name] = fn
}
