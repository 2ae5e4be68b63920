#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-update --seed 7 --seconds 15 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, documents, traces and the stores'
# working files under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user's config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"

go -C "$here" build -o "$build/mmmbench" .
exec "$build/mmmbench" -out "$here/out" "$@"
