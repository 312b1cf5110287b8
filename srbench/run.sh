#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every
# argument is passed through (--workload, --seed, --seconds, --trace).
# Run it from the root of a checkout. Build output, the Go build cache
# and the run records stay under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd srbench && go build -o "$out/srbench-bin" .)
exec "$out/srbench-bin" "$@"
