#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and the run's stores all stay under
# .bench_build in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
