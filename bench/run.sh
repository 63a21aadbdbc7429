#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of
# its own in this directory, importing the repository's packages through a
# replace directive) into .bench_build/ at the root of the checkout and
# runs it from there with the arguments given. Everything the go tool
# writes — build cache, scratch files, its telemetry counters (which go to
# the user config directory), a module cache should the module ever grow a
# dependency — is pointed inside .bench_build/, so nothing is written
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/fxbench" . >&2
exec "$build/fxbench" "$@"
