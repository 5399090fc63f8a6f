#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes stays under .bench_build/ at that root.
#
#   bash sppbench/run.sh --workload exact-cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/sppbench" .)
cd "$root"
exec "$build/sppbench" "$@"
