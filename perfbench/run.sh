#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Run it from
# the repository root. Build outputs, the Go build cache and span dumps all
# stay under .bench_build/ so the run writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/traces"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
