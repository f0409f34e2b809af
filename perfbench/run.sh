#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, eg.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the checkout root, including the Go build cache, so the benchmark
# reads and writes nothing outside the checkout. Outside a full checkout
# (no module root above perfbench/) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out/run" "$@"
