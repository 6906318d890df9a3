#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the run's scratch
# caches.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build"
export GOTMPDIR="$out"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
export HOME="$out/home"
mkdir -p "$XDG_CONFIG_HOME" "$HOME"

(cd "$root/benchmark" && go build -o "$out/gemstone-benchmark" .)
exec "$out/gemstone-benchmark" "$@"
