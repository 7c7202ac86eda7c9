#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program (see README.md). Build outputs, the Go build cache and temporary
# files all stay under .bench_build in the checkout, so nothing is read or
# written outside it (the Go toolchain itself aside).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/tstorm-bench" .)
exec "$build/tstorm-bench" "$@"
