#!/usr/bin/env bash
# Builds the extraction benchmark from source and runs it. Run from the
# repository root; every argument is passed on, for example
#
#   bash perfbench/run.sh --workload tpch-extract --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the daemon workload's temporary job
# stores all live under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
