#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mem-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# binary, the Go build cache and the durable workload's stores.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
