#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/allocbench" .
exec "$build/allocbench" "$@"
