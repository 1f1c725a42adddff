#!/bin/sh
# Benchmark regression guards. Two sections, both ratio-based because
# absolute thresholds are useless across machines — CI boxes here vary
# 2x run to run; the best-of-COUNT minimum is compared, which filters
# most scheduler noise out of both sides of every ratio.
#
# Section 1 — cascade. Runs the repository-scan benchmark (Serial /
# Engine / Cascade over the full attack corpus; Cascade is the -fast
# scan), writes the measured ns/op figures to $OUT, and
# fails if the cascade regresses RELATIVE to the exact engine on the
# same run:
#
#   cascade <= engine * TOLERANCE      (default 1.25)
#   cascade <= serial                  (pruning must never lose outright)
#
# The first is the property this tree promises (see docs/PERFORMANCE.md
# "The pruning cascade"): ordering by the cheap tier-1/2 bounds and
# gating the tier-3 bound must beat — or at worst, within scheduler
# noise, match — scoring every entry exactly.
#
# Section 2 — repository index. Runs the indexed-scan benchmark
# (Cascade / Indexed over the 500-variant mutation stress corpus, the
# variant re-scoring sweep of docs/INDEXING.md), writes $OUT_INDEX
# and enforces the index's headline promise:
#
#   cascade >= indexed * INDEX_SPEEDUP   (default 1.5)
#
# Without OUT and OUT_INDEX the figures go to a temporary directory that
# is removed on exit, so a guard run leaves the tree as it found it;
# `make bench-cascade` sets both to the tracked BENCH_cascade.json and
# BENCH_index.json to update the records.
set -eu

GO=${GO:-go}
COUNT=${COUNT:-3}
BENCHTIME=${BENCHTIME:-0.5s}
TOLERANCE=${TOLERANCE:-1.25}
INDEX_SPEEDUP=${INDEX_SPEEDUP:-1.5}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
OUT=${OUT:-$tmp/BENCH_cascade.json}
OUT_INDEX=${OUT_INDEX:-$tmp/BENCH_index.json}

cd "$(dirname "$0")/.."

raw=$tmp/raw

$GO test -run xxx -bench BenchmarkRepositoryScan \
    -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw"

awk -v tol="$TOLERANCE" -v out="$OUT" '
/^BenchmarkRepositoryScan\// {
    # BenchmarkRepositoryScan/Cascade-8  20416  94561 ns/op ...
    name = $1
    sub(/^BenchmarkRepositoryScan\//, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = $3 + 0
    if (!(name in best) || ns < best[name]) best[name] = ns
}
END {
    split("Serial Engine Cascade", want, " ")
    for (i in want) {
        if (!(want[i] in best)) {
            printf "bench-check: missing benchmark %s\n", want[i] > "/dev/stderr"
            exit 1
        }
    }
    ratio = best["Cascade"] / best["Engine"]
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkRepositoryScan\",\n" > out
    printf "  \"unit\": \"ns/op\",\n" > out
    printf "  \"serial\": %.0f,\n", best["Serial"] > out
    printf "  \"engine\": %.0f,\n", best["Engine"] > out
    printf "  \"cascade\": %.0f,\n", best["Cascade"] > out
    printf "  \"cascade_vs_engine\": %.3f,\n", ratio > out
    printf "  \"tolerance\": %.3f\n", tol > out
    printf "}\n" > out
    printf "bench-check: serial=%.0f engine=%.0f cascade=%.0f (cascade/engine = %.3f, tolerance %.2f)\n",
        best["Serial"], best["Engine"], best["Cascade"], ratio, tol
    if (ratio > tol) {
        printf "bench-check: FAILED — cascade regressed %.3fx vs the exact engine (limit %.2fx)\n", ratio, tol > "/dev/stderr"
        exit 1
    }
    if (best["Cascade"] > best["Serial"]) {
        printf "bench-check: FAILED — cascade scan (%.0f ns/op) slower than serial (%.0f ns/op)\n",
            best["Cascade"], best["Serial"] > "/dev/stderr"
        exit 1
    }
}' "$raw"

echo "bench-check: OK — figures written to $OUT"

$GO test -run xxx -bench BenchmarkIndexedScan \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/scan/ | tee "$raw"

awk -v speedup="$INDEX_SPEEDUP" -v out="$OUT_INDEX" '
/^BenchmarkIndexedScan\// {
    name = $1
    sub(/^BenchmarkIndexedScan\//, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = $3 + 0
    if (!(name in best) || ns < best[name]) best[name] = ns
}
END {
    split("Cascade Indexed", want, " ")
    for (i in want) {
        if (!(want[i] in best)) {
            printf "bench-check: missing benchmark %s\n", want[i] > "/dev/stderr"
            exit 1
        }
    }
    ratio = best["Cascade"] / best["Indexed"]
    printf "{\n" > out
    printf "  \"benchmark\": \"BenchmarkIndexedScan\",\n" > out
    printf "  \"unit\": \"ns/op\",\n" > out
    printf "  \"corpus\": \"detect.BuildVariantRepository PerFamily=125 Seed=1 (500 variants)\",\n" > out
    printf "  \"cascade\": %.0f,\n", best["Cascade"] > out
    printf "  \"indexed\": %.0f,\n", best["Indexed"] > out
    printf "  \"cascade_vs_indexed\": %.3f,\n", ratio > out
    printf "  \"required_speedup\": %.3f\n", speedup > out
    printf "}\n" > out
    printf "bench-check: cascade=%.0f indexed=%.0f (cascade/indexed = %.3f, required >= %.2f)\n",
        best["Cascade"], best["Indexed"], ratio, speedup
    if (ratio < speedup) {
        printf "bench-check: FAILED — indexed scan only %.3fx over the cascade (need %.2fx)\n", ratio, speedup > "/dev/stderr"
        exit 1
    }
}' "$raw"

echo "bench-check: OK — figures written to $OUT_INDEX"
