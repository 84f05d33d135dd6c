#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash bench/run.sh -seed 1 [-workload W] [-seconds S] [-trace 0|1|DIR] [-out FILE]
#
# The build needs no network. Its outputs and the Go build cache live under
# .bench_build/ in the checkout; the first build compiles the standard
# library into that cache and takes a while.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

cd "$root"
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
