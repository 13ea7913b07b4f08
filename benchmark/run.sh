#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from there, whatever directory it was called from: the benchmark
# reads BENCHMARK.json and writes benchmark/out/ relative to the root, and
# every file it writes (Go build cache included) stays inside the checkout.
# Arguments go to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$PWD/.bench_build/adsm-benchmark" .
exec .bench_build/adsm-benchmark "$@"
