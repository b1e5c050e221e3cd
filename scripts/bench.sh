#!/usr/bin/env bash
# Run the benchmark suite and append one labeled JSON record to BENCH_1.json
# (one JSON object per line: label, UTC timestamp, go version, the host's
# nproc and the GOMAXPROCS the benchmarks ran under, and ns/op, allocs/op
# and B/op per benchmark), so perf changes are comparable across PRs — and
# records from differently sized hosts are recognizably so. Benchmark names
# are recorded without the -GOMAXPROCS suffix go test appends, so names
# match across hosts; the record-level gomaxprocs field carries it.
#
# Usage:
#
#   scripts/bench.sh [label]        # label defaults to the current commit
#   BENCH=BenchmarkIterate scripts/bench.sh tuning-run   # subset, labeled
#
# BENCH selects the -bench regexp (default: all benchmarks).
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}"
pattern="${BENCH:-.}"
out_file="BENCH_1.json"

nproc=$(nproc)
gomaxprocs="${GOMAXPROCS:-$nproc}"

raw=$(go test -bench="$pattern" -benchmem -run '^$' ./...)

printf '%s\n' "$raw" | awk -v label="$label" \
    -v utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go env GOVERSION)" \
    -v nproc="$nproc" -v gomaxprocs="$gomaxprocs" '
BEGIN { n = 0 }
$1 ~ /^Benchmark/ && $NF == "allocs/op" {
    ns = ""; allocs = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
    }
    if (ns == "") next
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (n > 0) recs = recs ","
    # Field order is fixed: benchdiff.sh matches name, ns_per_op,
    # allocs_per_op as a prefix, so new fields go after them.
    recs = recs sprintf("{\"name\":\"%s\",\"ns_per_op\":%s,\"allocs_per_op\":%s,\"bytes_per_op\":%s}", name, ns, allocs, bytes)
    n++
}
END {
    if (n == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "{\"label\":\"%s\",\"utc\":\"%s\",\"go\":\"%s\",\"nproc\":%s,\"gomaxprocs\":%s,\"benchmarks\":[%s]}\n", label, utc, goversion, nproc, gomaxprocs, recs
}' >> "$out_file"

echo "bench.sh: appended $(printf '%s\n' "$raw" | grep -c '^Benchmark') benchmarks to $out_file (label: $label)"
