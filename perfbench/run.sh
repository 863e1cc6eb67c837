#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload etl-sort --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay in .bench_build/
# at the checkout root. The benchmark module replaces the engine module
# with the parent directory, so the build fails (and nothing runs) in a
# directory that holds only the benchmark.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
