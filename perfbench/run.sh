#!/usr/bin/env bash
# Builds the replay benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload bounded-stream --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" GOENV=off \
  GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
