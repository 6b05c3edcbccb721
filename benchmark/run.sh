#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds lpmark from the
# checkout it is run in and executes it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload scan-sources --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh run -trace 1
#   bash benchmark/run.sh compare A.json B.json
#
# Everything it writes stays inside the checkout: binaries and the Go
# build cache under .bench_build/, run output under benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lpmark" .)
cd "$root"
exec "$build/lpmark" "$@"
