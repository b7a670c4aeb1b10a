#!/usr/bin/env bash
# Builds discserve and the benchmark from the checkout this script sits
# in, then runs the benchmark with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and per-run state stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# go install leaves an up-to-date binary untouched, so repeated runs do
# not rewrite (and later write back) megabytes of unchanged binaries
# while a measurement is running.
export GOBIN="$out/bin"
go -C "$root/e2ebench" install . github.com/discdiversity/disc/cmd/discserve
exec "$GOBIN/e2ebench" -server-bin "$GOBIN/discserve" -work-dir "$out" "$@"
