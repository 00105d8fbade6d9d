#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source and
# run it, keeping every file the Go toolchain writes (build cache, temporary
# files, telemetry counters) under .bench_build/ inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of a kite checkout (go.mod, internal/, benchmark/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/kite-benchmark" ./benchmark
exec "$build/kite-benchmark" "$@"
