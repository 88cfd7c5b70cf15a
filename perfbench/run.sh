#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, binary)
# stays under .bench_build/ in the current directory. GOPROXY=off keeps the
# build offline, which works because the module has no dependencies outside
# the repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
