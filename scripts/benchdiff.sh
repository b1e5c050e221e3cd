#!/usr/bin/env bash
# Compare two records in BENCH_1.json — the last two, or any two by label —
# and flag regressions on the hot-path benchmarks: ns/op, allocs/op and
# B/op. Pure bash + awk, no dependencies.
#
# Usage:
#
#   scripts/benchdiff.sh                 # last two records of BENCH_1.json
#   scripts/benchdiff.sh A B             # record labeled A -> record labeled B
#   scripts/benchdiff.sh file [A B]      # the same over another record file
#   THRESHOLD=10 scripts/benchdiff.sh    # custom regression threshold (%)
#   PATTERN='.' scripts/benchdiff.sh     # gate every benchmark, not just hot paths
#
# When a label occurs more than once, its last record counts.
#
# Prints a before/after Δ table (ns/op, allocs/op and, where both records
# carry it, B/op) for every benchmark present in both records whose name
# matches PATTERN, and exits 1 if any matched benchmark's ns/op, allocs/op
# or — when both records carry it — B/op regressed by more than THRESHOLD
# percent (default 20); the failure message names each offending
# benchmark and which metric moved. B/op is gated like allocs/op: a change
# that keeps the allocation count but makes each allocation larger is a
# regression too.
# The default PATTERN covers the batch-heuristic kernels, every
# heuristic's single Map and the full iterative technique
# (HeuristicMap, IterativeTechnique), the serving
# fast paths (raw-alias cache hits, /v1/batch and its structural splitter:
# BatchServe, SplitBatch), the request decoder and
# response encoder (DecodeRequest, CanonicalKey, MarshalIterate), the
# cluster gateway hop and its rendezvous ranking (Gateway, Rank) and the
# disk result tier (internal/store Get/Put/Open) this repo's perf work
# targets.
set -euo pipefail
cd "$(dirname "$0")/.."

file=BENCH_1.json
case $# in
    0) ;;
    1) file=$1 ;;
    2) old_label=$1 new_label=$2 ;;
    3) file=$1 old_label=$2 new_label=$3 ;;
    *) echo "usage: scripts/benchdiff.sh [file] [old-label new-label]" >&2; exit 2 ;;
esac
threshold="${THRESHOLD:-20}"
pattern="${PATTERN:-min-min|max-min|duplex|sufferage|minmin|BatchKernel|IterativeTechnique|HeuristicMap|Serve|SplitBatch|BatchServe|Store|DecodeRequest|CanonicalKey|MarshalIterate|Gateway|Rank}"

if [ ! -f "$file" ]; then
    echo "benchdiff: $file not found" >&2
    exit 2
fi

# record LABEL prints the last record carrying LABEL.
record() {
    local line
    line=$(grep -F "{\"label\":\"$1\"," "$file" | tail -n 1)
    if [ -z "$line" ]; then
        echo "benchdiff: no record labeled '$1' in $file; labels:" >&2
        sed -n 's/^{"label":"\([^"]*\)".*/  \1/p' "$file" >&2
        exit 2
    fi
    printf '%s\n' "$line"
}

if [ -n "${old_label:-}" ]; then
    old_record=$(record "$old_label") || exit 2
    new_record=$(record "$new_label") || exit 2
    records=$old_record$'\n'$new_record
else
    if [ "$(wc -l < "$file")" -lt 2 ]; then
        echo "benchdiff: $file has fewer than two records; nothing to compare" >&2
        exit 2
    fi
    records=$(tail -n 2 "$file")
fi

printf '%s\n' "$records" | awk -v threshold="$threshold" -v pattern="$pattern" '
# Each record is one JSON line written by bench.sh with a fixed field
# layout: {"label":"...","utc":"...","go":"...",["nproc":P,"gomaxprocs":G,]
# "benchmarks":[{"name":"...","ns_per_op":N,"allocs_per_op":M[,
# "bytes_per_op":B]},...]} (bracketed fields appear in newer records
# only). Parse by scanning the benchmark objects; no general JSON
# machinery needed.
function parse(line, ns, al, by, labels, rec,    rest, seg, name, val) {
    if (match(line, /"label":"[^"]*"/)) {
        labels[rec] = substr(line, RSTART + 9, RLENGTH - 10)
    }
    rest = line
    while (match(rest, /\{"name":"[^"]*","ns_per_op":[0-9.eE+-]+,"allocs_per_op":[0-9.eE+-]+/)) {
        seg = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        match(seg, /"name":"[^"]*"/)
        name = substr(seg, RSTART + 8, RLENGTH - 9)
        match(seg, /"ns_per_op":[0-9.eE+-]+/)
        val = substr(seg, RSTART + 12, RLENGTH - 12) + 0
        ns[rec "," name] = val
        match(seg, /"allocs_per_op":[0-9.eE+-]+/)
        val = substr(seg, RSTART + 16, RLENGTH - 16) + 0
        al[rec "," name] = val
        if (match(rest, /^,"bytes_per_op":[0-9.eE+-]+/)) {
            by[rec "," name] = substr(rest, RSTART + 16, RLENGTH - 16) + 0
        }
        names[name] = 1
    }
}
# pct returns the regression percentage new-vs-old, or 0 when the old value
# is 0 (nothing to regress from in relative terms; a 0 -> N allocs jump is
# still visible in the table).
function pct(o, n) { return o == 0 ? 0 : (n - o) * 100.0 / o }
NR == 1 { old_line = $0 }
NR == 2 { new_line = $0 }
END {
    parse(old_line, ns, al, by, labels, "old")
    parse(new_line, ns, al, by, labels, "new")
    printf "benchdiff: %s -> %s (threshold %s%%, pattern %s)\n\n", \
        labels["old"], labels["new"], threshold, pattern
    printf "%-52s %12s %12s %8s %9s %9s %8s %10s %10s %8s\n", "benchmark", \
        "old ns/op", "new ns/op", "delta", "old al/op", "new al/op", "delta", \
        "old B/op", "new B/op", "delta"
    regressions = 0
    compared = 0
    offenders = ""
    for (name in names) {
        if (name !~ pattern) continue
        o = ns["old" "," name]; n = ns["new" "," name]
        if (o == "" || n == "" || o == 0) continue
        oa = al["old" "," name]; na = al["new" "," name]
        compared++
        dns = pct(o, n)
        dal = pct(oa, na)
        flag = ""
        if (dns > threshold) {
            flag = flag "  NS-REGRESSION"
            offenders = offenders sprintf("\n  %s: ns/op %+.1f%% (%.0f -> %.0f)", name, dns, o, n)
            regressions++
        }
        if (dal > threshold) {
            flag = flag "  ALLOC-REGRESSION"
            offenders = offenders sprintf("\n  %s: allocs/op %+.1f%% (%.0f -> %.0f)", name, dal, oa, na)
            regressions++
        }
        ob = by["old" "," name]; nb = by["new" "," name]
        bytes = sprintf("%10s %10s %8s", "-", "-", "-")
        if (ob != "" && nb != "") {
            dby = pct(ob, nb)
            bytes = sprintf("%10.0f %10.0f %+7.1f%%", ob, nb, dby)
            if (dby > threshold) {
                flag = flag "  BYTES-REGRESSION"
                offenders = offenders sprintf("\n  %s: B/op %+.1f%% (%.0f -> %.0f)", name, dby, ob, nb)
                regressions++
            }
        }
        printf "%-52s %12.0f %12.0f %+7.1f%% %9.0f %9.0f %+7.1f%% %s%s\n", \
            name, o, n, dns, oa, na, dal, bytes, flag
    }
    if (compared == 0) {
        print "\nbenchdiff: no benchmark matched in both records" > "/dev/stderr"
        exit 2
    }
    if (regressions > 0) {
        printf "\nbenchdiff: %d regression(s) beyond %s%%:%s\n", \
            regressions, threshold, offenders > "/dev/stderr"
        exit 1
    }
    printf "\nbenchdiff: ok (%d benchmarks within %s%% on ns/op, allocs/op and B/op)\n", compared, threshold
}'
