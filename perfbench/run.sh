#!/usr/bin/env bash
# Builds the item-path benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-uplink --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 10
#
# Build outputs (binary, Go build cache, durable-registry scratch, span
# dumps) stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# The go command's caches and its telemetry counters stay in the checkout.
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build"
export GOMODCACHE="$build/go-mod"
export GOPROXY=off
export GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
