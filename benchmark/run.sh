#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash benchmark/run.sh --workload burst --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build
# in the current directory: the Go build cache, the binary, and the
# trace files.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C benchmark build -o "$build/nbqueue-benchmark" .
exec "$build/nbqueue-benchmark" -out "$build" "$@"
