#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload ipv4-d1 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, GOPATH, the go command's
# config and telemetry directory, the binary) stays in .bench_build at the
# repository root; the module has no dependency outside this repository, so
# nothing is fetched. The binary runs from the repository root and replaces
# this shell, so no process outlives the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
