# Developer entry points. Everything is stdlib-only Go; no tools beyond
# the toolchain are required.

GO ?= go
# Every test target carries a hard timeout so a deadlocked pipeline
# fails the run instead of hanging it (the robustness suites exercise
# cancellation and backpressure, where a bug means "stuck forever").
TEST_TIMEOUT ?= 5m

.PHONY: all build test race vet bench bench-shard bench-vcache bench-cascade bench-index bench-check alloc-check vcache-smoke shard-smoke serve-smoke index-smoke window-smoke chaos chaos-smoke docs-check fuzz-short faults cover ci

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

# The repository-scan benchmark plus the per-stage detection costs,
# then the front of the pipeline layer by layer: the simulator alone
# (BenchmarkExecRun) and modeling alone over precomputed traces
# (BenchmarkBuildFromTrace); see docs/PERFORMANCE.md for how to read
# them. Use `go test -bench=. -benchmem` for the full table/figure
# harness.
bench:
	$(GO) test -run xxx -bench 'BenchmarkRepositoryScan|DetectionCost|SimilarityDTW' -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkExecRun' -benchmem ./internal/exec
	$(GO) test -run xxx -bench 'BenchmarkBuildFromTrace' -benchmem ./internal/model

# Sharded-scan throughput: one engine vs 1/2/4/8 local shards, exact
# and pruned. On a multi-core machine pruned sharded scans should meet
# or beat the single shard; see docs/PERFORMANCE.md.
bench-shard:
	$(GO) test -run xxx -bench BenchmarkShardedScan -benchmem ./internal/shard

# Verdict result cache cold/warm costs: verdict/miss is a full
# repository scan per classification, verdict/hit the same target from
# memory. The warm path should be well over 5x faster; see
# docs/PERFORMANCE.md.
bench-vcache:
	$(GO) test -run xxx -bench BenchmarkVerdictCache -benchmem ./internal/detect

# Lower-bound cascade figures: repository scan Serial vs Engine vs
# Cascade (the -fast scan), best-of-3, written to BENCH_cascade.json
# and BENCH_index.json. A longer
# benchtime than the CI guard, for quoting in docs/PERFORMANCE.md.
bench-cascade:
	BENCHTIME=1.5s COUNT=3 ./scripts/bench-check.sh

# Repository-index figures: the 500-variant stress-corpus sweep, Cascade
# vs Indexed, best-of-3 at a longer benchtime than the CI
# guard, for quoting in docs/PERFORMANCE.md and docs/INDEXING.md.
bench-index:
	$(GO) test -run xxx -bench BenchmarkIndexedScan -benchtime 1.5s -count 3 -benchmem ./internal/scan

# CI regression guards over both benchmarks: fails if the cascade scan
# regresses more than 1.25x RELATIVE to the exact engine in the same
# run (or loses to the serial reference), or if the indexed sweep scan
# drops under 1.5x over the cascade (intra-run ratios — absolute ns/op
# thresholds don't survive CI machine variance). Writes
# BENCH_cascade.json and BENCH_index.json.
bench-check:
	./scripts/bench-check.sh

# The warm scan path — exact and pruned (-fast) — must perform zero
# allocations per full repository pass, and one model build (CFG,
# simulation, modeling) must stay within its pinned allocation budget
# (testing.AllocsPerRun; see docs/PERFORMANCE.md "Allocation-free scan
# kernel" and the two "Front of pipeline" sections).
alloc-check:
	$(GO) test -timeout $(TEST_TIMEOUT) -run TestScanZeroAllocWarmPath -v ./internal/scan
	$(GO) test -timeout $(TEST_TIMEOUT) -run TestModelBuildAllocs -v ./internal/model

# Cache-hit smoke: the differential + all-hits repeat-pass tests across
# the detector, the shard servers and the golden corpus.
vcache-smoke:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'VerdictCache|ResultCache|CachedServers|ShardedCached' ./internal/vcache ./internal/detect ./internal/shard ./internal/stream .

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
# distance) and the index-descent exactness property (an indexed scan's
# best match bit-equals the flat engine's on random repositories), plus
# the checked-in seed corpora. Crashers land in the package's
# testdata/fuzz/ as regression inputs.
fuzz-short:
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/isa
	$(GO) test -fuzz=FuzzLowerBoundCascade -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/similarity
	$(GO) test -fuzz=FuzzIndexDescend -fuzztime=10s -timeout $(TEST_TIMEOUT) ./internal/scan

# Fault-injection suite under the race detector: panic isolation,
# cancellation promptness and leak freedom across the scan engine, the
# detector, the streaming pipeline and the shard layer
# (docs/ROBUSTNESS.md).
faults:
	$(GO) test -race -timeout $(TEST_TIMEOUT) \
		-run 'Panic|Cancel|Fault|Inject|Stream|Timeout|Limit|Shard|Retry|Partial|LookupFault|Failpoint|Reload|Drain|Overload|Hedge|Breaker|Prober|Replica|Chaos|Leak|Flap' \
		./internal/faultinject ./internal/panicsafe ./internal/scan ./internal/detect ./internal/stream ./internal/isa ./internal/shard ./internal/retry ./internal/breaker ./internal/chaos ./internal/vcache ./internal/serve ./internal/index ./internal/window

# Coverage over every package, with the per-function summary printed.
cover:
	$(GO) test -coverprofile=coverage.out -timeout $(TEST_TIMEOUT) ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

ci: build vet test race faults alloc-check bench-check vcache-smoke shard-smoke serve-smoke index-smoke window-smoke chaos-smoke docs-check fuzz-short cover
