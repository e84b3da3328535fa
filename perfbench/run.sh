#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (or $CARGO_TARGET_DIR)
# under the current directory, then runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload pair-fabric --seed 1 --seconds 10 --trace 0
#
# Every build artifact and the Go build cache stay inside that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files there too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
