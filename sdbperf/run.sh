#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#   bash sdbperf/run.sh --workload paper --seed 1 --seconds 10 --trace 0
# Run from the repository root. Everything the build writes (binary,
# Go build cache) goes under .bench_build, or under $CARGO_TARGET_DIR
# when that is set.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
unset GOFLAGS
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/sdbperf" && go build -o "$out/sdbperf" .)
exec "$out/sdbperf" "$@"
