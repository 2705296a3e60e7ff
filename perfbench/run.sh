#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload field10k --seed 1 --seconds 12 --trace 0
#
# Everything it builds stays under .bench_build in the checkout, the Go
# build cache included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --span-dir "$build/spans" "$@"
