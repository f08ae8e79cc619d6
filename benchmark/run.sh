#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given. Everything the Go toolchain writes (build cache,
# temporaries, the binary) stays under .bench_build in the checkout.
# Run from the repo root: bash benchmark/run.sh --workload engine-bulk --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
