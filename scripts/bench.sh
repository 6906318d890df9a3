#!/bin/sh
# Benchmark record: the campaign-engine Collect benchmarks (cold,
# atomic, traced, warm; the traced-vs-untraced pair bounds the tracing
# overhead and the detailed-vs-atomic pair the fidelity-tier speedup),
# simulator throughput, the distributed traced-vs-untraced pair, the obs
# span micro-benchmarks, the stats kernels, and gemload's serve-level
# latency and throughput rows (scripts/loadtest.sh). Every producer
# prints the standard Go benchmark format, so the record is their
# concatenation under go: and commit: lines; go test's own goos:,
# goarch:, pkg: and cpu: lines and the -GOMAXPROCS name suffix record
# the rest of the host.
#
# Usage:
#   scripts/bench.sh [out.txt]              run, write out.txt (default BENCH.txt)
#   scripts/bench.sh -c base.txt [out.txt]  run, write out.txt, then compare
#       it against base.txt with gemwatch (direction-aware, 25% tolerance;
#       exit 1 on a regression)
set -eu
cd "$(dirname "$0")/.."

baseline=""
if [ "${1:-}" = "-c" ]; then
	baseline="$2"
	shift 2
fi
out="${1:-BENCH.txt}"
if [ -n "$baseline" ] && [ ! -f "$baseline" ]; then
	echo "baseline $baseline not found" >&2
	exit 1
fi

# Write to a temporary file first so a failed run never truncates the
# committed record.
tmp="$(mktemp)"
serve="$(mktemp)"
trap 'rm -f "$tmp" "$serve"' EXIT INT TERM

{
	echo "go: $(go env GOVERSION)"
	echo "commit: $(git describe --always --dirty 2>/dev/null || echo unknown)"
} >"$tmp"
# The cold campaign simulates the full validation suite per iteration
# (~seconds each); 2 timed iterations keep the suite bounded.
go test -run '^$' -bench 'BenchmarkCollect_' -benchtime 2x -benchmem . >>"$tmp"
go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' -benchmem . >>"$tmp"
go test -run '^$' -bench 'BenchmarkRemoteCampaign' -benchtime 20x -benchmem ./internal/dist >>"$tmp"
go test -run '^$' -bench 'BenchmarkSpan' -benchmem ./internal/obs >>"$tmp"
go test -run '^$' -bench '.' -benchmem ./internal/stats >>"$tmp"
sh scripts/loadtest.sh -bench "$serve" >&2
cat "$serve" >>"$tmp"
cat "$tmp" >"$out"
echo "wrote $out" >&2

if [ -n "$baseline" ]; then
	exec go run ./cmd/gemwatch -bench "$out" -bench-base "$baseline"
fi
cat "$out"
