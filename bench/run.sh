#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/, so neither the
# binary nor the Go build cache lands outside it) and runs it from the
# repository root with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
(cd "$here" && go build -o "$build/ucqnbench" .)
cd "$root"
exec "$build/ucqnbench" "$@"
