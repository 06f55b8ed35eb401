#!/usr/bin/env bash
# Builds the RESCUE benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload holistic-registry --seed 1 --seconds 30 --trace 0
#
# Everything the build and the samples write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build
# cache, the toolchain's config and telemetry, and the samples' scratch
# files.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" run -tmp "$build/tmp" "$@"
