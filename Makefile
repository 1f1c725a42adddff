# Developer entry points. Everything is stdlib-only Go; no tools beyond
# the toolchain are required.

GO ?= go
# Every test target carries a hard timeout so a deadlocked pipeline
# fails the run instead of hanging it (the robustness suites exercise
# cancellation and backpressure, where a bug means "stuck forever").
TEST_TIMEOUT ?= 5m

.PHONY: all build test race vet bench-module bench bench-shard bench-vcache bench-cascade bench-index bench-check alloc-check vcache-smoke shard-smoke serve-smoke index-smoke window-smoke chaos chaos-smoke docs-check fuzz-short faults cover ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

# Race pass over the concurrent packages (the scan engine, the
# detector/repository wiring, the streaming pipeline, the shard
# scatter–gather layer, the circuit breakers, the chaos harness, the
# verdict result cache, the detection service front end and the online
# sliding-window detector) and over the front of the pipeline, whose
# programs concurrent classifications share (isa, cfg, exec, model).
race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./internal/detect ./internal/scan ./internal/stream ./internal/shard ./internal/breaker ./internal/chaos ./internal/vcache ./internal/serve ./internal/index ./internal/window ./internal/exec ./internal/isa ./internal/cfg ./internal/model

vet:
	$(GO) vet ./...

# The benchmark harness is its own module (benchmark/go.mod, which
# replaces repro with this tree), so `./...` above does not reach it.
# Build, vet and test it against the current tree, so a change to an
# exported symbol it uses fails CI here instead of in the benchmark run.
bench-module:
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test -timeout $(TEST_TIMEOUT) ./...

# The repository-scan benchmark plus the per-stage detection costs,
# then the front of the pipeline layer by layer: the simulator alone
# on new and on reused machines (BenchmarkExecRun), the parallel stress-corpus build at one and two
# workers (BenchmarkBuildVariantRepository) and modeling alone over
# precomputed traces (BenchmarkBuildFromTrace), then the streaming
# worker pool end to end over 200 labeled targets at GOMAXPROCS and at
# one worker (BenchmarkStream); see docs/PERFORMANCE.md
# for how to read them. Use `go test -bench=. -benchmem` for the full table/figure
# harness.
bench:
	$(GO) test -run xxx -bench 'BenchmarkRepositoryScan|DetectionCost|SimilarityDTW' -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkExecRun' -benchmem ./internal/exec
	$(GO) test -run xxx -bench 'BenchmarkBuildVariantRepository' -benchmem -cpu 1,2 ./internal/detect
	$(GO) test -run xxx -bench 'BenchmarkBuildFromTrace' -benchmem ./internal/model
	$(GO) test -run xxx -bench 'BenchmarkStream' -benchmem ./internal/stream

# Sharded-scan throughput, exact and pruned: one engine on one worker,
# one engine on GOMAXPROCS workers, and a coordinator over two loopback
# shard servers (end to end through HTTP and JSON); see
# docs/PERFORMANCE.md "Sharded scan".
bench-shard:
	$(GO) test -run xxx -bench BenchmarkShardedScan -benchmem ./internal/shard

# Verdict result cache cold/warm costs: verdict/miss is a full
# repository scan per classification, verdict/hit the same target from
# memory. The warm path should be well over 5x faster; see
# docs/PERFORMANCE.md.
bench-vcache:
	$(GO) test -run xxx -bench BenchmarkVerdictCache -benchmem ./internal/detect

# Lower-bound cascade figures: repository scan Serial vs Engine vs
# Cascade (the -fast scan), best-of-3, written to the tracked
# BENCH_cascade.json and BENCH_index.json. A longer
# benchtime than the CI guard, for quoting in docs/PERFORMANCE.md.
bench-cascade:
	BENCHTIME=1.5s COUNT=3 OUT=BENCH_cascade.json OUT_INDEX=BENCH_index.json ./scripts/bench-check.sh

# Repository-index figures: the 500-variant stress-corpus sweep, Cascade
# vs Indexed, best-of-3 at a longer benchtime than the CI
# guard, for quoting in docs/PERFORMANCE.md and docs/INDEXING.md.
bench-index:
	$(GO) test -run xxx -bench BenchmarkIndexedScan -benchtime 1.5s -count 3 -benchmem ./internal/scan

# CI regression guards over both benchmarks: fails if the cascade scan
# regresses more than 1.25x RELATIVE to the exact engine in the same
# run (or loses to the serial reference), or if the indexed sweep scan
# drops under 1.5x over the cascade (intra-run ratios — absolute ns/op
# thresholds don't survive CI machine variance). The figures go to a
# temporary directory, so the guard leaves the tree clean; `make
# bench-cascade` updates the tracked records.
bench-check:
	./scripts/bench-check.sh

# The warm scan path — exact and pruned (-fast) — must perform zero
# allocations per full repository pass, and so must a DistCache intern
# hit; one whole warm ScanCtx call, one simulation on a new machine
# (NewMachine + Run) and on a reused one (+ Release), one model build (CFG, simulation, modeling) and one warm
# ClassifyBBSCtx over a 500-entry repository must stay within their
# pinned allocation budgets, and so must one streamed window.Watch of a
# PoC; a warm engine reuse must not copy the repository
# (testing.AllocsPerRun; see docs/PERFORMANCE.md "Allocation-free scan
# kernel", "One target per scan", the two "Front of pipeline" sections,
# "Repeated programs skip modeling", "Watch streams its events", "One
# trace layout" and "One resettable machine").
alloc-check:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestScanZeroAllocWarmPath|TestScanCtxAllocs|TestDistCacheInternHitAllocs' -v ./internal/scan
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestRunAllocs|TestReusedRunAllocs' -v ./internal/exec
	$(GO) test -timeout $(TEST_TIMEOUT) -run TestModelBuildAllocs -v ./internal/model
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestClassifyBBSCtxAllocs|TestEngineReuseCopiesNothing' -v ./internal/detect
	$(GO) test -timeout $(TEST_TIMEOUT) -run TestWatchAllocs -v ./internal/window

# Cache-hit smoke: the differential + all-hits repeat-pass tests across
# the detector (program and model keys), the streaming pipeline and the
# golden corpus, plus the program digest and the shared-LRU tests of
# the cache itself. Every listed package has tests the pattern selects
# (check with go test -list). The second line reruns the singleflight
# collapse test 600 times (~0.03 s): its waiters must join the flight
# before the leader finishes, a race a single run rarely shows.
vcache-smoke:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'VerdictCache|ShardedCached|ProgramHash|ProgramKeys|PanickingCompute' ./internal/detect ./internal/stream ./internal/vcache .
	$(GO) test -timeout $(TEST_TIMEOUT) -count=300 -cpu 1,4 -run TestSingleflightCollapse ./internal/vcache

# End-to-end shard deployment smoke: two shard-serve processes on
# loopback, a partition handshake, then a remote sharded classify whose
# verdict must match the single-engine run.
shard-smoke:
	./scripts/shard-smoke.sh

# End-to-end detection-service smoke: a serve front end over two
# shard-serve processes, 64 concurrent clients with bit-identical
# verdicts, a zero-downtime /reload with cache re-warm, and a clean
# SIGTERM drain (docs/SERVING.md).
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end repository-index smoke: generate a mutation stress corpus
# with scaguard-corpus, classify flat vs indexed against it (verdicts
# must agree), then the same through two warm-indexed shard-serve
# processes (docs/INDEXING.md).
index-smoke:
	./scripts/index-smoke.sh

# End-to-end online-detection smoke: `scaguard watch` must flag an
# in-flight Flush+Reload mid-trace with a latency-to-detection figure,
# keep a benign workload clean, agree between exact and indexed
# per-window scans, reject nonsense knobs, and the windowed-detection
# benchmark must report cycles-to-detect (docs/WINDOWING.md).
window-smoke:
	./scripts/window-smoke.sh

# Full chaos soak under the race detector: a replicated loopback fleet
# under concurrent load while replicas are killed, revived, slowed and
# flapped. Asserts bit-identical verdicts while >=1 replica per
# partition lives, exactly-once degraded accounting during blackouts,
# breaker re-admission after recovery and zero goroutine leaks
# (docs/ROBUSTNESS.md). CHAOS_SEED/CHAOS_ROUNDS tune the schedule.
chaos:
	$(GO) test -race -count=1 -timeout $(TEST_TIMEOUT) -v -run TestChaosSoak ./internal/chaos

# CLI-level failure-ladder smoke (healthy fleet bit-identity, one-dead
# failover, whole-partition refusal) plus a short in-process soak.
chaos-smoke:
	./scripts/chaos-smoke.sh

# Every relative markdown link in the repo must resolve; broken links
# fail CI so the docs can't silently drift from the tree.
docs-check:
	./scripts/docs-check.sh

# Short fuzzing pass: ten seconds each over the assembler parser, the
# lower-bound cascade soundness property (every tier <= the exact DTW
# distance), the index-descent exactness property (an indexed scan's
# best match bit-equals the flat engine's on random repositories) and
# the front of the pipeline (mutated PoCs through simulation and
# modeling: deterministic models, exact verdicts equal to the serial
# oracle, -fast best equal to exact), Algorithm 1's path graph
# (PathGraph equal to the per-pair reference enumeration, so the
# pruning of dead-end walks never drops a path) and the online path
# (mutated PoCs streamed through window.Watch give the verdicts of
# replaying their recorded event log) and machine reuse (mutated PoCs
# and benign programs through one reused machine and a fresh one give
# deeply equal traces, registers and memory), plus the checked-in seed
# corpora. Crashers land in the package's testdata/fuzz/ as
# regression inputs.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/isa
	$(GO) test -fuzz=FuzzLowerBoundCascade -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/similarity
	$(GO) test -fuzz=FuzzIndexDescend -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/scan
	$(GO) test -fuzz=FuzzPipeline -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/detect
	$(GO) test -fuzz=FuzzPathGraph -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/graph
	$(GO) test -fuzz=FuzzWatch -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/window
	$(GO) test -fuzz=FuzzMachineReuse -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/exec

# Fault-injection suite under the race detector: panic isolation,
# cancellation promptness and leak freedom across the scan engine, the
# detector, the streaming pipeline and the shard layer
# (docs/ROBUSTNESS.md).
faults:
	$(GO) test -race -timeout $(TEST_TIMEOUT) \
		-run 'Panic|Cancel|Fault|Inject|Stream|Timeout|Limit|Shard|Partial|LookupFault|Failpoint|Reload|Drain|Overload|Breaker|Prober|Replica|Chaos|Leak|Flap' \
		./internal/faultinject ./internal/panicsafe ./internal/scan ./internal/detect ./internal/stream ./internal/isa ./internal/shard ./internal/breaker ./internal/chaos ./internal/vcache ./internal/serve ./internal/index ./internal/window

# Coverage over every package, with the total printed. The profile
# goes to the untracked, ignored coverage.out.
cover:
	$(GO) test -coverprofile=coverage.out -timeout $(TEST_TIMEOUT) ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

ci: build vet bench-module test race faults alloc-check bench-check vcache-smoke shard-smoke serve-smoke index-smoke window-smoke chaos-smoke docs-check fuzz-short cover
