#!/bin/bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#	bash bench/run.sh --workload read_mostly --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark from source with the build cache, the binary and
# every data directory under .bench_build/ in the checkout, so a run reads
# and writes nothing outside it, then hands its arguments to the binary.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
BENCH_REV=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_REV
(cd "$root/bench" && go build -o "$build/metacomm-bench" .)
exec "$build/metacomm-bench" "$@"
