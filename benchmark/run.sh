#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte it
# writes inside the checkout: the Go build cache and the binary under
# .bench_build/, span files and journal scratch under benchmark/out/.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go -C "$here" build -o "$build/tcvs-benchmark" .
cd "$root"
exec "$build/tcvs-benchmark" -out benchmark/out "$@"
