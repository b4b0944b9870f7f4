#!/usr/bin/env bash
# Builds the benchmark and ggserved from this checkout's sources, then
# runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload dense --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --workload served --runs 10
#
# Everything it writes (build cache, the toolchain's own telemetry
# counters, binaries, snapshots, span files) stays under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/ggserved" ggpdes/cmd/ggserved) >&2
exec "$out/bin/perfbench" "$@"
