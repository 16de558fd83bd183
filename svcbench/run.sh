#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it:
#
#   bash svcbench/run.sh --workload store-100k --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every file the build and the run
# write lands under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
src="$root/svcbench"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

# Keep the Go toolchain inside the checkout and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go build -C "$src" -o "$out/svcbench" .
exec "$out/svcbench" -dir "$out" "$@"
