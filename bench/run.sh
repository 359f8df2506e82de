#!/usr/bin/env bash
# Builds nocperf from this checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh -workload paper-eval -seed 1
#
# The Go build cache, temporary files and the go command's own
# configuration and telemetry live under .bench_build, so the benchmark
# reads and writes nothing outside the checkout. Without the
# repository's own module beside bench/ the build, and so the run, fails.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/nocperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -buildvcs=false -o "$out/nocperf" ./nocperf)
exec "$out/nocperf" "$@"
