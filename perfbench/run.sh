#!/usr/bin/env bash
# Builds the perfbench module and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-pascal --seed 1 --seconds 30 --trace 0
#
# The build and every file the benchmark writes stay under .bench_build/
# in the current directory, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
