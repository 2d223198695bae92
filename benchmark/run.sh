#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is the "command" of
# BENCHMARK.json. Everything the build and the run write stays inside the
# checkout: the Go build cache and the binary under .bench_build/, traces
# and temporary service data under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/dacpara-benchmark" .)
exec "$build/dacpara-benchmark" "$@"
