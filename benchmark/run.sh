#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# This is the `command` of BENCHMARK.json, started from the root of a
# checkout: bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The benchmark is its own Go module (go.mod here, `replace syrup => ../`),
# so it builds only next to the program it measures. Everything the build
# writes, the Go build cache included, stays under .bench_build/ in the
# checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
