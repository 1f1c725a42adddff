package main

import (
	"time"

	"repro/internal/telemetry"
)

// metricSpec names one reported metric. BENCHMARK.json at the repository
// root lists the same names, units and directions plus each end-to-end
// metric's regression bound; TestSmoke keeps the two in step.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the detector sees, reported by the
// untraced runs of every workload.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// cross reports 0.
var perLayer = []metricSpec{
	{"exec.setup_ms", "ms", "lower"},
	{"exec.run_ms", "ms", "lower"},
	{"exec.ns_per_insn", "ns", "lower"},
	{"exec.retired_insns", "count", "lower"},
	{"exec.sim_kcycles", "kcycles", "lower"},
	{"exec.pages", "count", "lower"},
	{"exec.allocs", "count", "lower"},
	{"exec.events", "count", "lower"},
	{"window.windows", "count", "lower"},
	{"window.quiet_frac", "frac", "higher"},
	{"window.model_ms", "ms", "lower"},
	{"window.scan_ms", "ms", "lower"},
	{"window.replay_ms", "ms", "lower"},
	{"window.detect_latency_kcycles", "kcycles", "lower"},
	{"cfg.build_ms", "ms", "lower"},
	{"cfg.blocks", "count", "lower"},
	{"model.build_ms", "ms", "lower"},
	{"model.bb_extract_ms", "ms", "lower"},
	{"model.cst_ms", "ms", "lower"},
	{"model.potential_bbs", "count", "lower"},
	{"model.relevant_bbs", "count", "lower"},
	{"model.len", "count", "lower"},
	{"model.allocs", "count", "lower"},
	{"scan.scan_ms", "ms", "lower"},
	{"scan.exact_frac", "frac", "lower"},
	{"scan.abandoned_frac", "frac", "higher"},
	{"scan.kim_skip_frac", "frac", "higher"},
	{"scan.keogh_skip_frac", "frac", "higher"},
	{"scan.lb_skip_frac", "frac", "higher"},
	{"scan.distcache_hit_rate", "frac", "higher"},
	{"scan.allocs", "count", "lower"},
	{"detect.classify_ms", "ms", "lower"},
	{"detect.overhead_ms", "ms", "lower"},
	{"detect.gated_frac", "frac", "higher"},
	{"detect.engine_rebuilds", "count", "lower"},
	{"index.build_s", "s", "lower"},
	{"index.clusters_descended", "count", "lower"},
	{"index.clusters_skipped", "count", "higher"},
	{"vcache.hit_rate", "frac", "higher"},
	{"vcache.collapsed_frac", "frac", "higher"},
	{"isa.parse_ms", "ms", "lower"},
	{"serve.resolve_ms", "ms", "lower"},
	{"serve.request_ms", "ms", "lower"},
	{"serve.server_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.rejected_frac", "frac", "lower"},
	{"serve.ref_p50_ms", "ms", "lower"},
	{"serve.ref_p99_ms", "ms", "lower"},
	{"serve.client_wait_ms", "ms", "lower"},
	{"serve.gen_lag_ms", "ms", "lower"},
	{"serve.max_rate_rps", "1/s", "higher"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.alloc_mb_s", "MB/s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
	{"verdict.accuracy", "frac", "higher"},
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(specs []metricSpec, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		out[s.Name] = value{Value: vals[s.Name], Unit: s.Unit}
	}
	return out
}

// layerCounts sums per-operation counts over the traced operations.
type layerCounts struct {
	retired, cycles, pages, events uint64
	blocks, potential, relevant    int
	modelLen, windows, quiet       int
}

// ladderStep is one open-loop step of serve-repeat, in ms.
type ladderStep struct{ p50, p99, wait, lag float64 }

// serveInfo carries serve-repeat's open-loop findings into the layer
// metrics: the reference step and the highest sustained ladder rate.
type serveInfo struct {
	ref     ladderStep
	maxRate float64
}

// layerInputs is everything the per-layer metrics derive from.
type layerInputs struct {
	spans    spanSummary
	counts   layerCounts
	windowed bool // watch: the detector's scans happen inside window.Replay
	// untracedOp is the mean untraced single-client operation over the
	// same targets as the first traced pass.
	untracedOp time.Duration
	// measured-phase telemetry and runtime readings, and its op count.
	m0, m1      telemetry.Snapshot
	rt          runtimeDelta
	measuredOps int
	// traced-phase telemetry.
	d0, d1 telemetry.Snapshot

	engineBuildS         float64
	accuracy             float64
	detectLatencyKcycles float64
	serve                serveInfo
}

func counterDelta(a, b telemetry.Snapshot, c telemetry.Counter) float64 {
	return float64(b.Counters[c.String()] - a.Counters[c.String()])
}

func stageDelta(a, b telemetry.Snapshot, s telemetry.Stage) time.Duration {
	return b.Stages[s.String()].Total - a.Stages[s.String()].Total
}

func gaugeDelta(a, b telemetry.Snapshot, group, key string) float64 {
	return float64(b.Gauges[group][key] - a.Gauges[group][key])
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives every per-layer metric. Span-timed layers are
// per traced operation; telemetry-stage times (the modeling phases, the
// windowed detector's model and scan work, the server's request stage)
// are per traced operation too; ratios come from the measured phase.
func layerMetrics(in layerInputs) map[string]float64 {
	s, c := in.spans, in.counts
	ops := float64(s.ops)
	perOp := func(n float64) float64 { return frac(n, ops) }
	stage := func(st telemetry.Stage) float64 { return perOp(ms(stageDelta(in.d0, in.d1, st))) }
	mc := func(k telemetry.Counter) float64 { return counterDelta(in.m0, in.m1, k) }

	out := map[string]float64{}
	out["exec.setup_ms"] = s.perOp("exec.NewMachine")
	out["exec.run_ms"] = s.perOp("exec.Run")
	if s.layers["exec.Run"] == nil {
		// Machine.Run inside the server: the model_trace stage times
		// exactly that call.
		out["exec.run_ms"] = stage(telemetry.StageTrace)
	}
	if a := s.layers["exec.Run"]; a != nil && c.retired > 0 {
		out["exec.ns_per_insn"] = float64(a.total.Nanoseconds()) / float64(c.retired)
	}
	out["exec.retired_insns"] = perOp(float64(c.retired))
	out["exec.sim_kcycles"] = perOp(float64(c.cycles)) / 1000
	out["exec.pages"] = perOp(float64(c.pages))
	out["exec.allocs"] = s.allocsPerOp("exec.NewMachine", "exec.Run")
	out["exec.events"] = perOp(float64(c.events))

	out["window.windows"] = perOp(float64(c.windows))
	out["window.quiet_frac"] = frac(float64(c.quiet), float64(c.windows))
	out["window.model_ms"] = stage(telemetry.StageWindowModel)
	if in.windowed {
		out["window.scan_ms"] = stage(telemetry.StageScan)
	}
	out["window.replay_ms"] = s.perOp("window.Replay")
	out["window.detect_latency_kcycles"] = in.detectLatencyKcycles

	out["cfg.build_ms"] = s.perOp("cfg.Build")
	out["cfg.blocks"] = perOp(float64(c.blocks))
	if s.layers["model.BuildFromTrace"] != nil {
		// BuildFromTrace recovers the CFG itself; its own share is net of
		// the separately timed cfg.Build of the same program.
		out["model.build_ms"] = s.perOp("model.BuildFromTrace") - s.perOp("cfg.Build")
	}
	out["model.bb_extract_ms"] = stage(telemetry.StageBBExtract)
	out["model.cst_ms"] = stage(telemetry.StageCST)
	out["model.potential_bbs"] = perOp(float64(c.potential))
	out["model.relevant_bbs"] = perOp(float64(c.relevant))
	out["model.len"] = perOp(float64(c.modelLen))
	out["model.allocs"] = s.allocsPerOp("model.BuildFromTrace")

	out["scan.scan_ms"] = s.perOp("scan.ScanCtx")
	if s.layers["scan.ScanCtx"] == nil && !in.windowed {
		out["scan.scan_ms"] = stage(telemetry.StageScan)
	}
	exact := mc(telemetry.ScanEntriesExact)
	lb := mc(telemetry.ScanEntriesLowerBoundSkipped)
	kim := mc(telemetry.ScanEntriesKimSkipped)
	keogh := mc(telemetry.ScanEntriesKeoghSkipped)
	abandoned := mc(telemetry.ScanEntriesAbandoned)
	cmp := exact + lb + kim + keogh + abandoned
	out["scan.exact_frac"] = frac(exact, cmp)
	out["scan.abandoned_frac"] = frac(abandoned, cmp)
	out["scan.kim_skip_frac"] = frac(kim, cmp)
	out["scan.keogh_skip_frac"] = frac(keogh, cmp)
	out["scan.lb_skip_frac"] = frac(lb, cmp)
	hits := gaugeDelta(in.m0, in.m1, "distcache", "pair_hits")
	out["scan.distcache_hit_rate"] = frac(hits, hits+gaugeDelta(in.m0, in.m1, "distcache", "pair_misses"))
	out["scan.allocs"] = s.allocsPerOp("scan.ScanCtx")

	out["detect.classify_ms"] = s.perOp("detect.ClassifyBBSCtx")
	if s.layers["detect.ClassifyBBSCtx"] != nil {
		// The detector's own scan is its engine's scan stage inside the
		// same call; the rest is gating, engine lookup and assembly.
		out["detect.overhead_ms"] = out["detect.classify_ms"] - stage(telemetry.StageScan)
	}
	out["detect.gated_frac"] = frac(mc(telemetry.DetectGated), mc(telemetry.DetectClassifications))
	out["detect.engine_rebuilds"] = mc(telemetry.DetectEngineRebuilds)

	out["index.build_s"] = in.engineBuildS
	mops := float64(in.measuredOps)
	out["index.clusters_descended"] = frac(mc(telemetry.IndexClustersDescended), mops)
	out["index.clusters_skipped"] = frac(mc(telemetry.IndexClustersSkipped), mops)

	vh, vm := mc(telemetry.VCacheHits), mc(telemetry.VCacheMisses)
	out["vcache.hit_rate"] = frac(vh, vh+vm)
	out["vcache.collapsed_frac"] = frac(mc(telemetry.VCacheCollapsed), vh+vm)

	out["isa.parse_ms"] = s.perOp("isa.Parse")
	out["serve.resolve_ms"] = s.perOp("serve.resolve")
	out["serve.request_ms"] = s.perOp("serve.request")
	if s.layers["serve.request"] != nil {
		out["serve.server_ms"] = stage(telemetry.StageServeRequest)
		out["serve.overhead_ms"] = out["serve.request_ms"] - out["serve.server_ms"]
	}
	rej := mc(telemetry.ServeRejected)
	out["serve.rejected_frac"] = frac(rej, rej+mc(telemetry.ServeRequests))
	out["serve.ref_p50_ms"] = in.serve.ref.p50
	out["serve.ref_p99_ms"] = in.serve.ref.p99
	out["serve.client_wait_ms"] = in.serve.ref.wait
	out["serve.gen_lag_ms"] = in.serve.ref.lag
	out["serve.max_rate_rps"] = in.serve.maxRate

	out["runtime.gc_cpu_frac"] = in.rt.gcCPUFrac
	out["runtime.alloc_mb_s"] = frac(float64(in.rt.bytes)/1e6, in.rt.secs)

	if s.firstPassOps > 0 && in.untracedOp > 0 {
		traced := s.firstOpTotal / time.Duration(s.firstPassOps)
		out["trace.overhead_frac"] = float64(traced-in.untracedOp) / float64(in.untracedOp)
	}
	out["trace.unattributed_frac"] = frac(float64(s.opSelf), float64(s.opTotal))
	out["verdict.accuracy"] = in.accuracy
	return out
}
