#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# artefact, cache and temporary file stays under the build directory
# (CARGO_TARGET_DIR if set, .bench_build otherwise), inside the checkout.
#
#   bash perfbench/run.sh --workload ctrl-storm --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
