// Command gemwatch is GemStone's result-drift watchdog. It compares the
// newest entry of a results ledger (written by gemstone -ledger) against
// a committed baseline ledger and fails when the results moved:
//
//   - headline MPE/MAPE outside a tolerance band (in percentage points),
//   - power-model R² degradation or MAPE movement,
//   - lmbench latency divergence,
//   - per-workload PE deltas flagged as robust (MAD-based) outliers,
//     reported by the baseline's HCA cluster so a shifted workload family
//     is named, not just counted,
//   - workload-set mismatches (missing or new workloads).
//
// Usage:
//
//	gemwatch [flags]
//
//	-ledger   file   results ledger to check   (default ledger.jsonl)
//	-baseline file   blessed baseline ledger   (default baselines/ledger.jsonl)
//	-html     file   also write a self-contained HTML drift report
//	-tol-mpe  pp     headline MPE tolerance    (default 2)
//	-tol-mape pp     headline MAPE tolerance   (default 2)
//	-tol-r2   d      allowed power R² drop     (default 0.01)
//	-pe-floor pp     min |ΔPE| to flag a workload outlier (default 5)
//	-mad-k    k      robust z-score outlier threshold     (default 3.5)
//
// Beyond model accuracy, gemwatch also watches speed: -bench compares a
// benchmark record in the standard Go benchmark format (scripts/bench.sh
// output: the go test -bench suite plus gemload's serve rows) against
// the committed BENCH.txt, direction-aware — ns/op, B/op, allocs/op or
// latency up, or MIPS or req/s down, beyond -tol-bench-pct is drift;
// improvements never are. Rows match on the benchmark name with its
// -GOMAXPROCS suffix stripped, plus the unit; a CPU, Go version or
// GOMAXPROCS difference between the two records is noted, not refused.
// When the baseline carries the BenchmarkCollect_ColdCache /
// BenchmarkCollect_ColdCacheAtomic pair, the current detailed/atomic
// per-op speedup must also stay above 5× — the fast path must remain a
// real multiple of the detailed tier, not merely avoid drifting. The
// rows join the headline table. When only the bench comparison is
// wanted (no result ledger on disk, e.g. in a bench CI job), gemwatch
// degrades to a bench-only report instead of failing:
//
//	-bench file          current benchmark record
//	-bench-base file     committed baseline (default BENCH.txt)
//	-tol-bench-pct pct   allowed regression percent (default 25)
//
// Exit status: 0 when the latest entry is within tolerance, 1 on drift,
// 2 on usage or I/O errors (missing ledgers, no valid entries).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gemstone"
	"gemstone/internal/ledger"
	"gemstone/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemwatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledgerPath := fs.String("ledger", "ledger.jsonl", "results ledger to check (newest entry is compared)")
	basePath := fs.String("baseline", "baselines/ledger.jsonl", "blessed baseline ledger (oldest entry is the reference)")
	htmlPath := fs.String("html", "", "also write a self-contained HTML drift report to this file")
	tolMPE := fs.Float64("tol-mpe", 0, "headline MPE tolerance in percentage points (0 = default 2)")
	tolMAPE := fs.Float64("tol-mape", 0, "headline MAPE tolerance in percentage points (0 = default 2)")
	tolR2 := fs.Float64("tol-r2", 0, "allowed power-model R² degradation (0 = default 0.01)")
	peFloor := fs.Float64("pe-floor", 0, "minimum |ΔPE| in pp to flag a workload outlier (0 = default 5)")
	madK := fs.Float64("mad-k", 0, "robust z-score threshold for workload outliers (0 = default 3.5)")
	benchPath := fs.String("bench", "", "current benchmark record (scripts/bench.sh output) to compare")
	benchBase := fs.String("bench-base", "BENCH.txt", "committed benchmark baseline")
	tolBenchPct := fs.Float64("tol-bench-pct", 0, "allowed benchmark regression percent (0 = default 25)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var benchRows []ledger.HeadlineDrift
	var benchNotes []string
	if *benchPath != "" {
		var err error
		benchRows, benchNotes, err = compareBench(*benchBase, *benchPath, *tolBenchPct)
		if err != nil {
			fmt.Fprintln(stderr, "gemwatch:", err)
			return 2
		}
	}

	// benchOnly: a bench comparison was requested, so a missing result
	// ledger degrades to a bench-only report instead of failing — the
	// bench CI job has no ledger on disk.
	benchOnly := func(why string) int {
		fmt.Fprintf(stderr, "gemwatch: %s; bench comparison only\n", why)
		r := &ledger.DriftReport{
			BasePlatform:  *benchBase,
			CurPlatform:   *benchPath,
			Headlines:     benchRows,
			ManifestNotes: benchNotes,
		}
		for _, h := range benchRows {
			r.Drift = r.Drift || h.Breach
		}
		fmt.Fprint(stdout, report.Drift(r))
		if r.Drift {
			return 1
		}
		return 0
	}

	base, ok, err := gemstone.OpenLedger(*basePath).Baseline()
	if err != nil {
		if *benchPath != "" {
			return benchOnly(fmt.Sprintf("no baseline ledger (%v)", err))
		}
		fmt.Fprintln(stderr, "gemwatch:", err)
		return 2
	}
	if !ok {
		if *benchPath != "" {
			return benchOnly(fmt.Sprintf("no valid baseline entries in %s", *basePath))
		}
		fmt.Fprintf(stderr, "gemwatch: no valid baseline entries in %s\n", *basePath)
		return 2
	}
	scan, err := gemstone.OpenLedger(*ledgerPath).Scan()
	if err != nil {
		if *benchPath != "" {
			return benchOnly(fmt.Sprintf("no results ledger (%v)", err))
		}
		fmt.Fprintln(stderr, "gemwatch:", err)
		return 2
	}
	if scan.Skipped > 0 {
		fmt.Fprintf(stderr, "gemwatch: skipped %d corrupt or incompatible ledger lines\n", scan.Skipped)
	}
	if len(scan.Entries) == 0 {
		if *benchPath != "" {
			return benchOnly(fmt.Sprintf("no valid entries in %s", *ledgerPath))
		}
		fmt.Fprintf(stderr, "gemwatch: no valid entries in %s (run gemstone -ledger %s first)\n",
			*ledgerPath, *ledgerPath)
		return 2
	}
	cur := scan.Entries[len(scan.Entries)-1]

	r := gemstone.CompareLedgerEntries(base, cur, gemstone.DriftOptions{
		MPETolerancePP:  *tolMPE,
		MAPETolerancePP: *tolMAPE,
		R2Tolerance:     *tolR2,
		PEFloorPP:       *peFloor,
		OutlierZ:        *madK,
	})
	// The bench rows join the headline table and the verdict.
	r.Headlines = append(r.Headlines, benchRows...)
	r.ManifestNotes = append(r.ManifestNotes, benchNotes...)
	for _, h := range benchRows {
		r.Drift = r.Drift || h.Breach
	}
	fmt.Fprint(stdout, report.Drift(r))

	if *htmlPath != "" {
		// History for the sparklines: the baseline first, then every valid
		// ledger entry in append order.
		history := append([]ledger.Entry{base}, scan.Entries...)
		html, err := report.DriftHTML(r, history)
		if err != nil {
			fmt.Fprintln(stderr, "gemwatch:", err)
			return 2
		}
		if err := os.WriteFile(*htmlPath, []byte(html), 0o644); err != nil {
			fmt.Fprintln(stderr, "gemwatch:", err)
			return 2
		}
		fmt.Fprintf(stdout, "drift report written to %s\n", *htmlPath)
	}

	if r.Drift {
		return 1
	}
	return 0
}

// minAtomicSpeedup is the floor on the detailed/atomic per-op speedup
// of the BenchmarkCollect_ColdCache / BenchmarkCollect_ColdCacheAtomic
// pair.
const minAtomicSpeedup = 5

// compareBench loads both benchmark records and compares them. When the
// baseline carries the detailed/atomic pair, an atomic_speedup_x row
// holds the current ratio above the floor: its Base is the baseline's
// own ratio (for context), its Tolerance is the floor, and the breach is
// absolute — a current ratio under the floor fails even if the baseline
// had already sagged.
func compareBench(basePath, curPath string, tolPct float64) ([]ledger.HeadlineDrift, []string, error) {
	base, err := ledger.LoadBench(basePath)
	if err != nil {
		return nil, nil, err
	}
	cur, err := ledger.LoadBench(curPath)
	if err != nil {
		return nil, nil, err
	}
	rows, notes := ledger.CompareBench(base, cur, tolPct)
	baseX, ok := atomicSpeedup(base)
	if !ok {
		return rows, notes, nil
	}
	curX, ok := atomicSpeedup(cur)
	if !ok {
		return nil, nil, fmt.Errorf("%s lacks the BenchmarkCollect_ColdCache / BenchmarkCollect_ColdCacheAtomic pair that %s carries", curPath, basePath)
	}
	rows = append(rows, ledger.HeadlineDrift{
		Name:      "atomic_speedup_x",
		Base:      baseX,
		Cur:       curX,
		Delta:     curX - baseX,
		Tolerance: minAtomicSpeedup,
		Breach:    curX < minAtomicSpeedup,
	})
	return rows, notes, nil
}

// atomicSpeedup returns a record's detailed/atomic ns/op ratio, and
// false when the record lacks the pair.
func atomicSpeedup(r *ledger.BenchRecord) (float64, bool) {
	var det, atom float64
	for _, m := range r.Metrics {
		if m.Unit != "ns/op" {
			continue
		}
		switch m.Name {
		case "BenchmarkCollect_ColdCache":
			det = m.Value
		case "BenchmarkCollect_ColdCacheAtomic":
			atom = m.Value
		}
	}
	if det <= 0 || atom <= 0 {
		return 0, false
	}
	return det / atom, true
}
