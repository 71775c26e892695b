#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload websearch_k8 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced runs' span logs all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
