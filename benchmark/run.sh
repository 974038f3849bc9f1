#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. The command of BENCHMARK.json; run it from the
# root of a checkout:
#
#   bash benchmark/run.sh --workload loops-fine --seed 1 --seconds 20 --trace 0
#
# Everything it writes — Go's build cache, the binary, detail files —
# stays under .bench_build/ in the checkout. With warm caches the build
# step takes well under a second, so every run pays it and no run can
# use a stale binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config" # where the go command keeps its telemetry counters
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -buildvcs=false -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
