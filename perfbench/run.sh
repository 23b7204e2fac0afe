#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload place-dc --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache) stays under .bench_build in
# the checkout. The binary's last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # where Go keeps its env file and telemetry
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
