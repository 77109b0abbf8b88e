#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash almostbench/run.sh --workload recipe-eval --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache and the determinism record all stay
# under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/almostbench" && go build -o "$out/almostbench" .)
exec "$out/almostbench" "$@"
