#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it.
#
#   bash benchmark/run.sh --workload replay-io --seed 11 --seconds 15 --trace 0
#
# Everything the build and the run write — compiler cache, binary, temporary
# stores and daemon data dirs — goes under .bench_build/ at the repository
# root, so nothing outside the checkout is touched. The script replaces itself
# with the benchmark binary (exec), so there is no child process to reap.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
