#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload paper-hc --seed 1 --seconds 20 --trace 0
# Run from the repository root. The Go build cache, and the home and
# config directories the go command may write to, live in .bench_build/
# too, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
