#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload hpl-192 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries, the
# mhpcd stores and the trace output.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
