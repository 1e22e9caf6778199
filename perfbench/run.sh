#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload nano-open --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain state)
# stays under .bench_build/ at the root of the tree.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/cache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

# Telemetry off, so the go command writes no counter files and starts
# no upload process.
go telemetry off 2>/dev/null || true
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
