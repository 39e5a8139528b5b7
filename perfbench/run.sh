#!/usr/bin/env bash
# Builds qosrmad and the benchmark from this checkout, then runs the
# benchmark: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# Every path the go command writes (build cache, temporary files, module
# cache, telemetry counters under the config directory) stays in $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/qosrmad" ./cmd/qosrmad
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -qosrmad "$out/qosrmad" "$@"
