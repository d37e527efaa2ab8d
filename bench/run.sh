#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes —
# Go's build cache, its temp files, the binary — stays under .bench_build at
# the root of the checkout, so a run touches nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/layered-bench" .)
cd "$root"
exec "$build/layered-bench" "$@"
