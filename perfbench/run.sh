#!/usr/bin/env bash
# Builds the benchmark and a pvcd daemon from the checkout in the current
# directory, then runs the benchmark with the given arguments. Everything
# the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
# With telemetry on, every go command starts a detached sidecar process that
# outlives it; switching it off first means the build leaves nothing running.
go telemetry off
go build -o "$out/pvcd" ./cmd/pvcd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
