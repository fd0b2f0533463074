#!/usr/bin/env bash
# Builds the benchmark and the lccd daemon from the sources of the checkout
# it is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload pull-rmat --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory. Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/lccd" repro/cmd/lccd
) >&2

exec "$out/perfbench" -lccd "$out/lccd" -out "$out" "$@"
