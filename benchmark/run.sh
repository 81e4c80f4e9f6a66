#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (cache and
# binary both inside the checkout) and runs it with the caller's arguments:
#
#   bash benchmark/run.sh --workload commit_paced --seed 1 --seconds 20 --trace 0
#
# From the benchmark directory itself, `go run . <args>` does the same with
# the user's own build cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dprbench" .)
exec "$build/dprbench" -out "$here/out" "$@"
