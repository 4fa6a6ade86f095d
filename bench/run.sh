#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build
# writes — compiler cache and temporary files too — stays inside the
# checkout. Run from the repository root:
#
#   bash bench/run.sh --workload dl16 --seed 1 --seconds 14 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off
go build -C bench -o "$build/nrscope-bench" .
exec "$build/nrscope-bench" "$@"
