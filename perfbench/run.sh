#!/usr/bin/env bash
# Builds davd, davfsck and the load generator from this checkout, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload meta-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
mkdir -p "$GOTMPDIR" "$build/bin" "$build/work"

(cd "$root/perfbench" && go build -o "$build/bin/" . repro/cmd/davd repro/cmd/davfsck)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
