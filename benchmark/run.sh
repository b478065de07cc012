#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark inside the
# checkout, then run it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and temp dir are pointed there, and so are
# the benchmark's data directories (the WAL it fsyncs), results and traces.
# The first run in a checkout pays for compiling the standard library into
# the fresh cache; later runs rebuild nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/mla-benchmark" ./benchmark
exec "$build/mla-benchmark" -out "$build/out" "$@"
