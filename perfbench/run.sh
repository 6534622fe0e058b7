#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload recognize --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go caches stay under the checkout, in
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTELEMETRY=off
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
