#!/usr/bin/env bash
# Builds cmd/reproduce and the perfbench harness from source into
# .bench_build/ (build cache included, so nothing is written outside the
# checkout), then runs the harness with this script's arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload whatif-replay --seed 42 --seconds 40 --trace 0
#   bash perfbench/run.sh --report --runs 3
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# With telemetry on (mode "local" is the default) the go command forks a
# detached telemetry process that outlives it; mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/reproduce" ./cmd/reproduce
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -spec "$root/BENCHMARK.json" \
	-reproduce "$build/bin/reproduce" -work "$build/work" "$@"
