#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root. Build outputs, the Go build cache and results
# files all go to .bench_build/ at the repository root, so nothing is
# written outside the checkout.
#
#   bash benchmark/run.sh -workload steady-fig7 -seed 1 -seconds 20 -trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
