#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# and the run write stays inside the checkout: the Go build cache, the
# binary and the daemons' data under .bench_build/ (or
# $CARGO_TARGET_DIR), history and traces under bench/out/.
#
#   bash bench/run.sh --workload cyclic_list --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -traced        # all five workloads, both modes
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/home"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOWORK=off
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config TMPDIR=$build/tmp

go build -C bench -o "$build/pvfsbench" . >&2
exec "$build/pvfsbench" -tmp "$build/tmp" "$@"
