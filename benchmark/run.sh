#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from the checkout's
# source and runs it. Run from the root of a checkout; everything it writes
# (build cache, binary, durable state, span files) goes under .bench_build/
# in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/pmabench" .
exec "$build/pmabench" -tmp "$build" "$@"
