#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it with the given arguments. Everything the build
# writes (binary, Go build cache) stays inside the checkout. Run from
# anywhere; the benchmark itself runs from the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$build/repro-bench" .)
cd "$root"
exec "$build/repro-bench" "$@"
