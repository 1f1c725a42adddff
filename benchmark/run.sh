#!/usr/bin/env bash
# Builds the detection benchmark from source and runs it with the given
# flags, from the repository root:
#
#   bash benchmark/run.sh --workload triage --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the toolchain's scratch and config
# files all live under .bench_build/ in the repository root, so a run
# writes nothing outside the checkout. Without the rest of the repository
# (the module the benchmark imports) the build fails and the script
# exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/xdg"

(
	cd "$root/benchmark"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg" HOME="$out/xdg" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/scaguard-bench" .
)

cd "$root"
exec "$out/scaguard-bench" "$@"
