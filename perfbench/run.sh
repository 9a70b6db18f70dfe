#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tan-wide --seed 1 --seconds 18 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOWORK=off
export GOTOOLCHAIN=local

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
