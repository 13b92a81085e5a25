#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the generator from the
# working tree and runs it with the caller's arguments. Go's build cache
# and temp files are kept under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it; `go run ./bench ...` does the same
# with the user's own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
