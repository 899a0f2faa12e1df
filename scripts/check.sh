#!/usr/bin/env sh
# check.sh — the full verification pipeline, used locally (`make check`)
# and by CI. Fails fast on the first broken gate.
#
# Usage: scripts/check.sh [race|fuzz]
#
# With no argument every stage runs. `race` or `fuzz` runs that one stage,
# which is how `make race` and `make fuzz` share this file's package and
# target lists.
#
# FUZZTIME (default 10s) bounds each fuzz smoke run; set FUZZTIME=0 to
# skip the fuzz stage entirely (e.g. on very slow machines).
set -eu

cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

race() {
    echo "==> go test -race (concurrent packages)"
    go test -race ./internal/netcast/... ./internal/online/... ./internal/opt/... ./internal/ptas/... ./internal/replan/... ./internal/sim/... ./internal/chaos/... ./internal/loadgen/... ./internal/experiments/... ./cmd/...
}

# fuzz smokes every Fuzz* target of the module, found with `go test -list`,
# so a new target cannot be left out. `-run` names the target too, so the
# package's unit tests are not rerun once per target; the target's seed
# corpus still runs.
fuzz() {
    if [ "$FUZZTIME" = "0" ]; then
        echo "==> fuzz smoke skipped (FUZZTIME=0)"
        return
    fi
    echo "==> fuzz smoke (${FUZZTIME} per target)"
    listed=$(go test -list '^Fuzz' ./...)
    echo "$listed" | awk '/^Fuzz/ { names = names " " $1; next }
        /^ok/ { if (names != "") print $2 names; names = "" }' |
    while read -r pkg targets; do
        for target in $targets; do
            go test -run="^${target}\$" -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg"
        done
    done
}

case "${1:-all}" in
race) race; exit ;;
fuzz) fuzz; exit ;;
all) ;;
*) echo "usage: scripts/check.sh [race|fuzz]" >&2; exit 2 ;;
esac

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> bench module: go vet + go test (it builds against internal/ APIs)"
(cd bench && go vet ./... && go test ./...)

# From bench/, tcsa/... names the packages of both modules, so testonly
# sees every non-test reference (and flags an internal/ package nothing
# imports).
echo "==> airvet over both modules (against lint_baseline.json)"
(cd bench && go run tcsa/cmd/airvet -baseline ../lint_baseline.json tcsa/...)

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

race

echo "==> loadgen smoke (zero-fault scenarios self-verify against sim.MeasureStream)"
go run ./cmd/loadgen -clients 1000 -dists uniform,sskew -out ""

echo "==> trajectory gates (every airbench gate against its committed BENCH_<name>.json)"
go run ./cmd/airbench -gate all

fuzz

echo "==> all checks passed"
