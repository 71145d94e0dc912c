#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything the
# build and the run write stays under .bench_build in the checkout: Go's build
# cache, the binary, and scratch files (the scan workload's snapshot).
set -euo pipefail

[ -f go.mod ] || { echo "benchmark/run.sh: run it from the root of a checkout of the repository (no go.mod here)" >&2; exit 3; }

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too;
# GOTOOLCHAIN=local forbids fetching another toolchain.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local TMPDIR="$out/tmp"
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
