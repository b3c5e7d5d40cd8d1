#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and the benchmark's temporary caches
# and traces all go under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory, so a run writes nothing outside the checkout.
set -euo pipefail

build_dir=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build_dir"
build=$(cd "$build_dir" && pwd)

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/xdg-config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
