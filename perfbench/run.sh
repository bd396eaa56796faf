#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fabric --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# goes under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory: the Go build cache, the binary, temporary server directories
# and the traced run's span dump.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/gotmp"
out=$(cd "$out" && pwd)
# XDG_CONFIG_HOME moves the go command's telemetry settings here too, where
# telemetry is turned off.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off
go telemetry off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out" "$@"
