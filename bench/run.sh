#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash bench/run.sh --workload table2-energy --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh --seed 1        # every workload, one row each
#
# The binary, the Go build cache and traced runs' Chrome traces stay
# under .bench_build/ in the checkout; the go command's own config,
# telemetry and temporary files are kept there too, and it is not
# allowed to download.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# The bench module replaces the repository module with "..": outside a
# checkout (no go.mod beside bench/) the build fails and nothing runs.
(cd bench && go build -o "$out/thistle-bench" .)
exec "$out/thistle-bench" "$@"
