# GemStone-Go build and verification targets.
#
# `make check` is the tier-1 gate: build, vet, and the full test suite
# under the race detector (the campaign engine fans out across
# GOMAXPROCS workers, so -race is part of the contract, not an extra).

GO ?= go

.PHONY: check quick build vet test serve-test trace-smoke screen-smoke bench bench-compare bench-scaling loadtest loadtest-soak fuzz clean watch experiments baseline

check: build vet test trace-smoke screen-smoke

# Fast development loop: -short skips the full-campaign analysis fixture
# and the worker-count determinism sweep, and trims the golden
# equivalence sweeps to a subset — seconds instead of minutes. The
# internal/dist integration suite runs here too, with its campaigns
# shrunk to 2 runs (CI also runs it as an explicit step).
quick:
	$(GO) test -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race -timeout 45m ./...

# Campaign-service integration suite: the end-to-end golden test (two
# tenants through `gemstone serve` with a worker killed mid-campaign),
# admission control, spec fuzz seeds, and the dist concurrent-campaign
# regression — everything under -race. -short trims campaign sizes and
# skips the chaos soak; drop it for the full soak.
serve-test:
	$(GO) test -race -short -count=1 ./internal/serve/ ./internal/dist/

# Trace-overhead smoke: the same two-worker campaign traced and
# untraced, interleaved best-of-5, asserting tracing stays within the
# 2% bar (plus a small absolute term for sub-second scheduler jitter).
# Deliberately NOT under -race — it is a wall-clock measurement, and
# the race detector's instrumentation swamps the signal. BENCH.txt
# carries the precise steady-state numbers
# (BenchmarkCollect_ColdCache vs BenchmarkCollect_ColdCacheTraced).
trace-smoke:
	GEMSTONE_TRACE_SMOKE=1 $(GO) test -short -count=1 -run TestTraceOverheadSmoke ./internal/dist/

# Fidelity-tier smoke: the atomic tier's documented error bound (short
# workload sweep), the screen-then-resimulate split at the core layer
# (flagged points re-simulated detailed, the rest keep their atomic
# predictions, per-run provenance recording the split), and a screened
# campaign end to end through gemstone serve.
screen-smoke:
	$(GO) test -short -count=1 -run 'TestAtomicErrorBound|TestScreenMixedFidelity|TestScreenModeCampaign' ./internal/platform/ ./internal/core/ ./internal/serve/

# Re-record BENCH.txt, the committed benchmark record: the campaign,
# simulator, dist, span and stats benchmarks plus gemload's serve rows,
# in the standard Go benchmark format with the host it ran on (see
# scripts/bench.sh).
bench:
	sh scripts/bench.sh

# Re-run the same suite into BENCH_new.txt and compare it against the
# committed BENCH.txt with gemwatch: direction-aware per row with a 25%
# tolerance, plus the detailed/atomic speedup floor.
bench-compare:
	sh scripts/bench.sh -c BENCH.txt BENCH_new.txt

# Multi-core scaling row: the cold detailed and atomic campaigns at 1, 2
# and 4 procs. Record the output with the host (CPU model, nproc,
# GOMAXPROCS, Go version, commit) in README's Performance section.
bench-scaling:
	$(GO) test -run '^$$' -bench 'BenchmarkCollect_ColdCache(Atomic)?$$' -cpu 1,2,4 -benchtime 2x -benchmem .

# gemload smoke: a short closed-loop mixed load (cold/warm/events/
# analysis) against an in-process two-worker fleet; fails unless every
# client/server SLO reconciliation check passes.
loadtest:
	sh scripts/loadtest.sh

# gemload chaos soak: three workers with one killed every 2s plus wire
# chaos for 20s of sustained load — the SLO contract must hold through
# rolling worker death (nightly CI uploads the report).
loadtest-soak:
	sh scripts/loadtest.sh -soak -out gemload-soak.json

# Result-drift watchdog: re-run the v1 validation campaign with the
# invariant validators on, append it to a scratch ledger, and compare
# against the committed baseline (baselines/ledger.jsonl). Fails when the
# numbers moved — tier-1 CI guards the results, not just the tests.
watch:
	sh scripts/watch.sh

# Re-bless the committed baseline ledger after an intentional model
# change (review the gemwatch drift report first).
baseline:
	sh scripts/watch.sh -update

# Regenerate every EXPERIMENTS.md row: one benchmark per paper table /
# figure, run exactly once each, printing paper-vs-measured values.
experiments:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Short fuzz smoke of the hardened surfaces (archives, generator).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLoadRunSet -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzGenerator -fuzztime 10s ./internal/workload

clean:
	$(GO) clean ./...
