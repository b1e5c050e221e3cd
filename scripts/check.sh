#!/usr/bin/env bash
# The full repository gate in one command — CI and builders run the same
# thing (see CLAUDE.md):
#
#   gofmt clean, go vet, build, full test suite, one iteration of the
#   engine and heuristic benchmarks, the perfbench module's
#   own tests, a bounded fuzz leg over the request decoders, the
#   canonical key, the number converter, the engine's derived iterations,
#   the two fault-spec parsers, the store's segment replay and the
#   heuristics' runs into caller storage, paper
#   self-check, the schedd serving
#   smoke (ephemeral port, pinned Table-1 trace, cache byte-identity,
#   metricz, span-tree and statusz trace leg, graceful drain), the
#   schedgw cluster smoke (3 local backends, the Table-1 miss
#   byte-identical to a single instance and its byte-identical hit,
#   their span trees, drain), the schedchaos scenario sweep (every
#   builtin scenario — single-instance, cluster, restart-recovery and the
#   disk-tier fault/full arcs — every invariant, stdout pinned against
#   cmd/schedchaos/testdata/all.golden; the one leg that runs the chaos
#   scenarios, which the selfchecks do not replay)
#   and the tracing legs (schedd/schedgw -trace-out span streams analyzed
#   by schedtrace -counts, pinned against
#   scripts/testdata/trace_counts.golden and gateway_trace_counts.golden),
#   and a self-test of scripts/benchdiff.sh over fixture records.
#   The -race leg covers the whole module: internal/serve's concurrency
#   tests, the resilience layer (internal/faults, internal/client), the
#   cluster gateway, the chaos harness, the daemons' end-to-end tests and
#   the facade's serve, cluster and resilience examples.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "[ok  ] gofmt"

go vet ./...
echo "[ok  ] go vet"

go build ./...
echo "[ok  ] go build"

go test ./...
echo "[ok  ] go test"

# `go test ./...` compiles the benchmarks but never runs them: one
# iteration of each engine and heuristic benchmark catches a b.Fatal
# (a heuristic erroring on a benchmark shape) before scripts/bench.sh does.
go test -run '^$' -bench 'IterativeTechnique|HeuristicMap|KernelVsReference' -benchtime 1x . ./internal/heuristics >/dev/null
echo "[ok  ] benchmarks run once (IterativeTechnique, HeuristicMap, KernelVsReference)"

go test -race ./...
echo "[ok  ] go test -race"

# The benchmark harness is its own module (perfbench/go.mod) built against
# this one, so `go test ./...` above never compiles it. It calls
# serve.CanonicalKey and decodes serve's response types: a serving API
# change that breaks it fails here, built offline exactly as
# perfbench/run.sh builds it.
(cd perfbench && GOPROXY=off GOFLAGS= GOWORK=off go test .)
echo "[ok  ] perfbench module tests"

# A bounded fuzz leg per untrusted-bytes parser target: a few seconds of
# fresh inputs on top of the committed corpus the plain test run replays.
for target in FuzzDecodeRequest FuzzParseBatchItem FuzzSplitBatch FuzzCanonicalKey FuzzParseNumber; do
    go test ./internal/serve -run '^$' -fuzz "^${target}\$" -fuzztime 5s -parallel 2 >/dev/null
done
# The engine's derived iterations (the restricting heuristics' and Duplex's
# Min-Min half) against the slow path they skip.
go test ./internal/core -run '^$' -fuzz '^FuzzIterateDerived$' -fuzztime 5s -parallel 2 >/dev/null
# The -fault-inject and -store-fault-inject grammars.
go test ./internal/faults -run '^$' -fuzz '^FuzzFaultsSpec$' -fuzztime 5s -parallel 2 >/dev/null
go test ./internal/store -run '^$' -fuzz '^FuzzFaultFSSpec$' -fuzztime 5s -parallel 2 >/dev/null
# The disk tier's segment replay over arbitrary bytes.
go test ./internal/store -run '^$' -fuzz '^FuzzReplaySegment$' -fuzztime 5s -parallel 2 >/dev/null
# Every heuristic's runs in reused caller storage against fresh ones and
# the reference implementations.
go test ./internal/heuristics -run '^$' -fuzz '^FuzzMapInto$' -fuzztime 5s -parallel 2 >/dev/null
echo "[ok  ] fuzz (decoder, batch item, batch splitter, canonical key, number converter, derived iterations incl. Duplex's Min-Min half, fault specs, segment replay, heuristic runs into caller storage; 5 s each)"

go run ./cmd/paperrepro
echo "[ok  ] paperrepro"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/schedd -selfcheck -trace-out "$tmp/spans.jsonl" >/dev/null
echo "[ok  ] schedd selfcheck (Table-1 trace, cache hit, metricz, trace leg, statusz, drain)"

# The selfcheck's span stream — the three Table-1 requests — is
# deterministic in everything but durations;
# schedtrace -counts strips the wall-clock columns, so the remainder must
# match the pinned golden byte for byte (and schedtrace itself exits
# non-zero on any structural violation).
go run ./cmd/schedtrace -counts "$tmp/spans.jsonl" >"$tmp/trace_counts.txt"
diff -u scripts/testdata/trace_counts.golden "$tmp/trace_counts.txt"
echo "[ok  ] schedd -trace-out span stream matches the schedtrace golden"

go run ./cmd/schedgw -selfcheck -trace-out "$tmp/gwspans.jsonl" >/dev/null
echo "[ok  ] schedgw selfcheck (aggregated health, Table-1 trace byte-identical to a single instance, warm hit, span trees, drain)"

# Same determinism contract for the gateway's span stream — the two
# Table-1 requests — whose stage counts are pinned.
# This is the only check of the gateway's -trace-out JSONL path.
go run ./cmd/schedtrace -counts "$tmp/gwspans.jsonl" >"$tmp/gateway_trace_counts.txt"
diff -u scripts/testdata/gateway_trace_counts.golden "$tmp/gateway_trace_counts.txt"
echo "[ok  ] schedgw -trace-out span stream matches the schedtrace golden"

# Every builtin chaos scenario — single-instance, cluster, restart-recovery
# and the disk-tier fault/full arcs — at its pinned seed, the only leg
# that runs them (the selfchecks replay none): the sweep must
# exit 0 (every invariant ok) and its -json stdout must match the golden
# byte for byte, which pins every header, invariant line and report field.
go run ./cmd/schedchaos -json >"$tmp/chaos.txt"
diff -u cmd/schedchaos/testdata/all.golden "$tmp/chaos.txt"
echo "[ok  ] schedchaos scenarios (single-instance + cluster + restart + disk; the one chaos sweep) match the golden"

# The benchdiff gate itself, over fixture records: an identical pair must
# pass, and a +25% ns/op row and a +25% B/op row must each fail with exit
# 1, naming the row and the metric that moved. The gate under test is the
# default one, so an inherited THRESHOLD or PATTERN is dropped.
env -u THRESHOLD -u PATTERN scripts/benchdiff.sh scripts/testdata/benchdiff_same.json >/dev/null
for row in "ns-up:BenchmarkStoreGetMiss: ns/op" "bytes-up:BenchmarkStorePut: B/op"; do
    label=${row%%:*} want=${row#*:}
    status=0
    env -u THRESHOLD -u PATTERN scripts/benchdiff.sh scripts/testdata/benchdiff_regressed.json parent "$label" >/dev/null 2>"$tmp/benchdiff.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -qF "$want" "$tmp/benchdiff.err"; then
        echo "benchdiff self-test: parent -> $label exited $status, want 1 naming '$want':" >&2
        cat "$tmp/benchdiff.err" >&2
        exit 1
    fi
done
echo "[ok  ] benchdiff passes an identical pair and fails a 25% ns/op or B/op regression"
