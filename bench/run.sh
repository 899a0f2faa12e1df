#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the
# repository root:
#
#   bash bench/run.sh -workload paper-serve -seed 1 -seconds 10 -trace 0
#
# Everything the build writes (binary, build cache, temporary files) stays
# under .bench_build/ in the repository root, so the benchmark reads and
# writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$build/tcsa-bench" .)
cd "$root"
exec "$build/tcsa-bench" "$@"
