#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash benchmark/run.sh --workload fft-deny --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, telemetry
# counters) stays under .bench_build/ in the checkout; the binary is built
# there too and replaces this shell, so no process outlives the benchmark.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/dvebenchmark" .)
exec "$build/dvebenchmark" "$@"
