#!/usr/bin/env bash
# Builds the benchmark and mlkv-server from this checkout's sources and runs
# the benchmark with the arguments given. Everything the build and the run
# write — Go's build cache included — goes under .bench_build/ in the
# checkout; nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
# HOME too: the go command keeps its telemetry counters under the user's
# config directory.
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
mkdir -p "$HOME"
(
	cd benchmark
	go build -o "$out/mlkv-benchmark" .
	go build -o "$out/mlkv-server" github.com/llm-db/mlkv-go/cmd/mlkv-server
) >&2
exec "$out/mlkv-benchmark" -server-bin "$out/mlkv-server" -work "$out/work" "$@"
