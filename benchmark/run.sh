#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the build writes (binary, Go build
# cache, module cache, the go command's telemetry counters) stays inside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$root/.bench_build/aeon-benchmark" .
exec "$root/.bench_build/aeon-benchmark" "$@"
