#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache and
# binary under .bench_build/) and runs it with the arguments given. Run from
# the repository root: bash bench/run.sh --workload warm_reads --seed 1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/itcperf" .)
exec "$build/itcperf" "$@"
