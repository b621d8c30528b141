#!/usr/bin/env bash
# Builds the harness from source and runs it, touching nothing outside the
# checkout: the Go build cache, module cache and temporary files all live
# under .bench_build/ at the checkout's root. Arguments go to the harness
# (see README.md); the trace files land in bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The module needs nothing but the standard library and the repo itself.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -C bench -o "$build/bench" .
exec "$build/bench" --out bench/out "$@"
