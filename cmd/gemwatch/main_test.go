package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemstone/internal/ledger"
)

// entry fabricates a ledger record with the given model fingerprint and
// headline MPE; per-workload PEs are centred on the headline.
func entry(model string, mpe float64, pes map[string]float64) ledger.Entry {
	e := ledger.Entry{
		Manifest: ledger.RunManifest{
			Schema:           ledger.SchemaVersion,
			HWPlatform:       "odroid-xu3",
			ModelPlatform:    "gem5-ex5-" + model,
			HWFingerprint:    "hw-fp",
			ModelFingerprint: "model-fp-" + model,
			Cluster:          "a15",
			FreqMHz:          1000,
		},
		Results: ledger.Results{
			Cluster: "a15", FreqMHz: 1000,
			MAPE: mpe * -1, MPE: mpe,
		},
	}
	label := 0
	for wl, pe := range pes {
		e.Results.Workloads = append(e.Results.Workloads,
			ledger.WorkloadResult{Workload: wl, HCACluster: label % 2, PE: pe})
		label++
	}
	return e
}

func writeLedger(t *testing.T, path string, entries ...ledger.Entry) {
	t.Helper()
	st := ledger.Open(path)
	for _, e := range entries {
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunNoDrift(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	pes := map[string]float64{"w1": -50, "w2": -52, "w3": -48}
	writeLedger(t, basePath, entry("v1", -51, pes))
	writeLedger(t, curPath, entry("v1", -50.5, pes))

	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "OK — within tolerance") {
		t.Fatalf("verdict missing:\n%s", out.String())
	}
}

func TestRunDetectsDriftAndWritesHTML(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	htmlPath := filepath.Join(dir, "drift.html")
	// The Section VII swing: v1's branch-predictor bug vs the v2 fix.
	writeLedger(t, basePath, entry("v1", -51.7,
		map[string]float64{"w1": -50, "w2": -52, "w3": -48, "w4": -494}))
	writeLedger(t, curPath,
		entry("v1", -51.7, map[string]float64{"w1": -50, "w2": -52, "w3": -48, "w4": -494}),
		entry("v2", 10.2, map[string]float64{"w1": 9, "w2": 11, "w3": 10, "w4": -30}))

	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath, "-html", htmlPath}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (drift). stderr: %s", code, errb.String())
	}
	for _, want := range []string{"DRIFT DETECTED", "MPE", "fingerprint changed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!doctype html", "Drift detected", "polyline"} {
		if !strings.Contains(string(html), want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
}

func TestRunMissingLedgers(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{
		"-ledger", filepath.Join(dir, "none.jsonl"),
		"-baseline", filepath.Join(dir, "nobase.jsonl"),
	}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no valid baseline entries") {
		t.Fatalf("stderr: %s", errb.String())
	}
}

func TestRunToleratesCorruptLines(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	pes := map[string]float64{"w1": -50}
	writeLedger(t, basePath, entry("v1", -51, pes))
	writeLedger(t, curPath, entry("v1", -51, pes))
	// A writer died mid-append: the watchdog must still compare the last
	// complete record.
	f, err := os.OpenFile(curPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"manifest":{"schema":1,"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "skipped 1 corrupt") {
		t.Fatalf("corruption warning missing: %s", errb.String())
	}
}

// benchFile writes a benchmark record in the Go benchmark format.
func benchFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunServeBenchAlongsideLedger(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	curPath := filepath.Join(dir, "ledger.jsonl")
	pes := map[string]float64{"w1": -50, "w2": -52, "w3": -48}
	writeLedger(t, basePath, entry("v1", -51, pes))
	writeLedger(t, curPath, entry("v1", -50.5, pes))

	baseBench := benchFile(t, dir, "base.txt",
		"BenchmarkServe/cold 10 100 p99-ms 50 req/s\n")
	// Within tolerance: exit 0, serve rows in the headline table.
	okBench := benchFile(t, dir, "ok.txt",
		"BenchmarkServe/cold 10 110 p99-ms 48 req/s\n")
	var out, errb bytes.Buffer
	code := run([]string{"-ledger", curPath, "-baseline", basePath,
		"-bench", okBench, "-bench-base", baseBench}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkServe/cold p99-ms") {
		t.Fatalf("serve rows missing from headline table:\n%s", out.String())
	}

	// A latency regression beyond tolerance drifts even when the model
	// accuracy is clean.
	badBench := benchFile(t, dir, "bad.txt",
		"BenchmarkServe/cold 10 200 p99-ms 50 req/s\n")
	out.Reset()
	errb.Reset()
	code = run([]string{"-ledger", curPath, "-baseline", basePath,
		"-bench", badBench, "-bench-base", baseBench}, &out, &errb)
	if code != 1 {
		t.Fatalf("serve regression: exit = %d, want 1\nstdout: %s", code, out.String())
	}
}

// noLedgers points gemwatch at ledgers that do not exist, so a bench
// comparison degrades to a bench-only report.
func noLedgers(dir string) []string {
	return []string{
		"-ledger", filepath.Join(dir, "missing.jsonl"),
		"-baseline", filepath.Join(dir, "missing-base.jsonl"),
	}
}

func TestRunServeBenchWithoutLedger(t *testing.T) {
	dir := t.TempDir()
	baseBench := benchFile(t, dir, "base.txt", "BenchmarkServe/warm 10 10 p50-ms\n")
	curBench := benchFile(t, dir, "cur.txt", "BenchmarkServe/warm 10 11 p50-ms\n")

	// No ledgers anywhere: the bench comparison still runs, degraded to
	// a bench-only report.
	var out, errb bytes.Buffer
	code := run(append(noLedgers(dir), "-bench", curBench, "-bench-base", baseBench), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkServe/warm p50-ms") {
		t.Fatalf("serve row missing:\n%s", out.String())
	}

	// Same, with a breach: exit 1.
	badBench := benchFile(t, dir, "bad.txt", "BenchmarkServe/warm 10 100 p50-ms\n")
	out.Reset()
	errb.Reset()
	code = run(append(noLedgers(dir), "-bench", badBench, "-bench-base", baseBench), &out, &errb)
	if code != 1 {
		t.Fatalf("bench-only regression: exit = %d, want 1\nstdout: %s", code, out.String())
	}

	// A missing baseline file is still a hard usage error.
	out.Reset()
	errb.Reset()
	code = run([]string{"-bench", curBench, "-bench-base", filepath.Join(dir, "nope.txt")}, &out, &errb)
	if code != 2 {
		t.Fatalf("missing bench baseline: exit = %d, want 2", code)
	}
}

// TestRunAtomicBench pins the atomic-tier watchdog: when the baseline
// carries the detailed/atomic pair, the record is compared like any
// other, plus an absolute speedup floor on the current ratio — and it
// degrades to a bench-only report with no ledger.
func TestRunAtomicBench(t *testing.T) {
	dir := t.TempDir()
	baseBench := benchFile(t, dir, "base.txt", `
BenchmarkCollect_ColdCache-8         2 2850000000 ns/op
BenchmarkCollect_ColdCacheAtomic-8   2  256000000 ns/op
`)
	// Healthy: ~11x, comfortably above the floor and within drift bands.
	okBench := benchFile(t, dir, "ok.txt", `
BenchmarkCollect_ColdCache-8         2 2900000000 ns/op
BenchmarkCollect_ColdCacheAtomic-8   2  260000000 ns/op
`)
	var out, errb bytes.Buffer
	code := run(append(noLedgers(dir), "-bench", okBench, "-bench-base", baseBench), &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "atomic_speedup_x") {
		t.Fatalf("speedup row missing:\n%s", out.String())
	}

	// The atomic tier slowed to 2x: within a huge drift tolerance, but
	// under the speedup floor — drift.
	slowBench := benchFile(t, dir, "slow.txt", `
BenchmarkCollect_ColdCache-8         2 2850000000 ns/op
BenchmarkCollect_ColdCacheAtomic-8   2 1425000000 ns/op
`)
	out.Reset()
	errb.Reset()
	code = run(append(noLedgers(dir), "-bench", slowBench, "-bench-base", baseBench, "-tol-bench-pct", "10000"), &out, &errb)
	if code != 1 {
		t.Fatalf("sub-floor speedup: exit = %d, want 1\nstdout: %s", code, out.String())
	}

	// A current record without the pair the baseline carries is a usage
	// error.
	halfBench := benchFile(t, dir, "half.txt", "BenchmarkCollect_ColdCache-8 2 2850000000 ns/op\n")
	out.Reset()
	errb.Reset()
	code = run(append(noLedgers(dir), "-bench", halfBench, "-bench-base", baseBench), &out, &errb)
	if code != 2 {
		t.Fatalf("half record: exit = %d, want 2", code)
	}

	// A baseline without the pair skips the floor.
	out.Reset()
	errb.Reset()
	code = run(append(noLedgers(dir), "-bench", halfBench, "-bench-base", halfBench), &out, &errb)
	if code != 0 || strings.Contains(out.String(), "atomic_speedup_x") {
		t.Fatalf("pairless baseline: exit = %d, want 0 with no speedup row\nstdout: %s", code, out.String())
	}
}

// TestRunBenchProcsSuffix: go test appends -GOMAXPROCS to every result
// name unless it is 1, so a baseline recorded at GOMAXPROCS=1 carries
// bare names. Rows must still match across the suffix — a 34x per-op
// slowdown at -2/-4 is drift, not a pair of "missing"/"new" notes — and
// the GOMAXPROCS change is noted.
func TestRunBenchProcsSuffix(t *testing.T) {
	dir := t.TempDir()
	baseBench := benchFile(t, dir, "base.txt", `cpu: Intel(R) Xeon(R) Processor
BenchmarkCollect_ColdCache         2 2850000000 ns/op
BenchmarkCollect_ColdCacheAtomic   2  256000000 ns/op
BenchmarkServe/cold-start          9 110 p50-ms
`)
	curBench := benchFile(t, dir, "cur.txt", `cpu: Intel(R) Xeon(R) Processor
BenchmarkCollect_ColdCache-2       2 96900000000 ns/op
BenchmarkCollect_ColdCacheAtomic-2 2  8704000000 ns/op
BenchmarkServe/cold-start-4        9 3740 p50-ms
`)
	var out, errb bytes.Buffer
	code := run(append(noLedgers(dir), "-bench", curBench, "-bench-base", baseBench), &out, &errb)
	if code != 1 {
		t.Fatalf("34x slowdown behind a -GOMAXPROCS suffix: exit = %d, want 1\nstdout: %s", code, out.String())
	}
	for _, want := range []string{
		"BenchmarkCollect_ColdCache ns/op",
		"BenchmarkCollect_ColdCacheAtomic ns/op",
		"BenchmarkServe/cold-start p50-ms",
		`bench host differs: baseline cpu="Intel(R) Xeon(R) Processor" go= GOMAXPROCS=1; current cpu="Intel(R) Xeon(R) Processor" go= GOMAXPROCS=2,4`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
	for _, unwanted := range []string{"missing from current run", "new in current run"} {
		if strings.Contains(out.String(), unwanted) {
			t.Errorf("unmatched rows (%q) in:\n%s", unwanted, out.String())
		}
	}
}
