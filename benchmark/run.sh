#!/usr/bin/env bash
# Builds cmd/serve and the benchmark harness from this checkout, then runs the
# harness with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload explore_cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build product, cache and
# temporary file goes under .bench_build/ in the checkout, and the Go tool is
# kept offline (GOPROXY=off, GOTOOLCHAIN=local): the module needs nothing
# beyond the standard library and the repository itself. In a directory
# without the program (no go.mod, no cmd/serve) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Telemetry off: otherwise the go command forks a detached (setsid) sidecar
# that can outlive this script, even when the build fails.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/serve" ./cmd/serve
(cd benchmark && go build -o "$out/harness" .)
exec "$out/harness" -serve "$out/serve" -workdir "$out" "$@"
