#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, and the
# databases the workloads open.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --work "$out" "$@"
