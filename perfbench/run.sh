#!/usr/bin/env bash
# Builds the host-cost benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig9-contention --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, telemetry) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
