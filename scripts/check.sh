#!/usr/bin/env sh
# check.sh — the full verification pipeline, used locally (`make check`)
# and by CI. Fails fast on the first broken gate.
#
# FUZZTIME (default 10s) bounds each fuzz smoke run; set FUZZTIME=0 to
# skip the fuzz stage entirely (e.g. on very slow machines).
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> orphan-package guard (every internal package reached by a binary, an example or the bench module)"
reached=$(mktemp)
{ go list -deps ./cmd/... ./examples/... . && (cd bench && go list -deps .); } | sort -u >"$reached"
orphans=$(go list ./internal/... | sort | comm -23 - "$reached")
rm -f "$reached"
if [ -n "$orphans" ]; then
    echo "internal packages no binary, example or bench reaches (give each an importer or delete it):"
    echo "$orphans"
    exit 1
fi

echo "==> bench module: go vet + go test (it builds against internal/ APIs)"
(cd bench && go vet ./... && go test ./...)

echo "==> airvet ./... (against lint_baseline.json)"
go run ./cmd/airvet -baseline lint_baseline.json ./...

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> go test -race (concurrent packages)"
go test -race ./internal/netcast/... ./internal/online/... ./internal/opt/... ./internal/ptas/... ./internal/replan/... ./internal/sim/... ./internal/chaos/... ./internal/loadgen/... ./internal/experiments/... ./cmd/...

echo "==> loadgen smoke (zero-fault scenarios self-verify against sim.MeasureStream)"
go run ./cmd/loadgen -clients 1000 -dists uniform,sskew -out ""

echo "==> trajectory gates (every airbench gate against its committed BENCH_<name>.json)"
go run ./cmd/airbench -gate all

if [ "$FUZZTIME" = "0" ]; then
    echo "==> fuzz smoke skipped (FUZZTIME=0)"
else
    echo "==> fuzz smoke (${FUZZTIME} per target)"
    go test -fuzz=FuzzRearrange'$'          -fuzztime="$FUZZTIME" ./internal/core/
    go test -fuzz=FuzzRearrangeMonotone'$'  -fuzztime="$FUZZTIME" ./internal/core/
    go test -fuzz=FuzzProgramJSON'$'        -fuzztime="$FUZZTIME" ./internal/core/
    go test -fuzz=FuzzGroupSetJSON'$'       -fuzztime="$FUZZTIME" ./internal/core/
    go test -fuzz=FuzzParseFrame'$'         -fuzztime="$FUZZTIME" ./internal/netcast/
    go test -fuzz=FuzzRingCell'$'           -fuzztime="$FUZZTIME" ./internal/netcast/
    go test -fuzz=FuzzPAMADPlacement'$'     -fuzztime="$FUZZTIME" ./internal/pamad/
    go test -fuzz=FuzzSUSCEquivalence'$'    -fuzztime="$FUZZTIME" ./internal/susc/
    go test -fuzz=FuzzSketchQuantile'$'     -fuzztime="$FUZZTIME" ./internal/stats/
    go test -fuzz=FuzzChaosDeterminism'$'   -fuzztime="$FUZZTIME" ./internal/chaos/
    go test -fuzz=FuzzReplayMatchesWalk'$'  -fuzztime="$FUZZTIME" ./internal/chaos/
    go test -fuzz=FuzzPTASEquivalence'$'    -fuzztime="$FUZZTIME" ./internal/opt/
    go test -fuzz=FuzzReplanEquivalence'$'  -fuzztime="$FUZZTIME" ./internal/replan/
    go test -fuzz=FuzzOndemandQueue'$'      -fuzztime="$FUZZTIME" ./internal/ondemand/
    go test -fuzz=FuzzOnlineEquivalence'$'  -fuzztime="$FUZZTIME" ./internal/online/
    go test -fuzz=FuzzLoadgenEquivalence'$' -fuzztime="$FUZZTIME" ./internal/loadgen/
fi

echo "==> all checks passed"
