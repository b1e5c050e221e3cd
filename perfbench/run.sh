#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload engine-miss --seed 1 --seconds 10 --trace 0
#
# The benchmark is its own module (perfbench/go.mod) that builds against the
# repository module one directory up. Build cache, temporary files and the
# binary live under .bench_build/ in the checkout; the build is offline and
# ignores any user Go configuration or workspace.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
