#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 15 --trace 0
#
# Build outputs (binary and Go build cache) go under $CARGO_TARGET_DIR,
# default .bench_build, relative to the repository root, so the run
# reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
if ! (cd "$here" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" -out "$build/reports" "$@"
