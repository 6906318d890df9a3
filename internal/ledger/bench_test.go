package ledger

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// goTestBlock and gemloadBlock are the two producers' output as
// scripts/bench.sh concatenates them.
const goTestBlock = `go: go1.24.0
commit: 78479c7
goos: linux
goarch: amd64
pkg: gemstone
cpu: Intel(R) Xeon(R) Processor
BenchmarkCollect_ColdCache-2   	       2	2852608603 ns/op	59141080 B/op	    1768 allocs/op
BenchmarkSimulatorThroughput-2 	      10	 123456789 ns/op	         7.600 MIPS
PASS
ok  	gemstone	21.144s
`

const gemloadBlock = `pkg: gemstone/cmd/gemload
BenchmarkServe/cold-2	57	110.10 p50-ms	199.23 p95-ms	296.60 p99-ms	12.54 req/s
`

func TestLoadBench(t *testing.T) {
	// Both producers' blocks load through one reader.
	rec, err := LoadBench(writeBench(t, "b.txt", goTestBlock+gemloadBlock))
	if err != nil {
		t.Fatal(err)
	}
	want := []BenchMetric{
		{"BenchmarkCollect_ColdCache", 2, 2852608603, "ns/op"},
		{"BenchmarkCollect_ColdCache", 2, 59141080, "B/op"},
		{"BenchmarkCollect_ColdCache", 2, 1768, "allocs/op"},
		{"BenchmarkSimulatorThroughput", 2, 123456789, "ns/op"},
		{"BenchmarkSimulatorThroughput", 2, 7.6, "MIPS"},
		{"BenchmarkServe/cold", 2, 110.1, "p50-ms"},
		{"BenchmarkServe/cold", 2, 199.23, "p95-ms"},
		{"BenchmarkServe/cold", 2, 296.6, "p99-ms"},
		{"BenchmarkServe/cold", 2, 12.54, "req/s"},
	}
	if len(rec.Metrics) != len(want) {
		t.Fatalf("loaded %d metrics, want %d: %+v", len(rec.Metrics), len(want), rec.Metrics)
	}
	for i, w := range want {
		if rec.Metrics[i] != w {
			t.Errorf("metric %d = %+v, want %+v", i, rec.Metrics[i], w)
		}
	}
	for k, v := range map[string]string{
		"go": "go1.24.0", "commit": "78479c7", "cpu": "Intel(R) Xeon(R) Processor",
		"pkg": "gemstone/cmd/gemload", // the last pkg line wins
	} {
		if rec.Config[k] != v {
			t.Errorf("config %s = %q, want %q", k, rec.Config[k], v)
		}
	}

	for name, body := range map[string]string{
		"empty":      "",
		"config":     "goos: linux\ncpu: x\nPASS\n",
		"valueless":  "BenchmarkX-2 10\n",
		"odd pairs":  "BenchmarkX-2 10 5 ns/op 7\n",
		"malformed":  "BenchmarkX-2 10 fast ns/op\n",
		"non-finite": "BenchmarkX-2 10 NaN ns/op\n",
		"duplicate":  "BenchmarkX-2 10 5 ns/op\nBenchmarkX-4 10 6 ns/op\n",
	} {
		if _, err := LoadBench(writeBench(t, "bad.txt", body)); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
	if _, err := LoadBench(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestSplitProcs(t *testing.T) {
	for _, c := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX-8", "BenchmarkX", 8},
		// A dash inside a sub-benchmark name is part of the name; only
		// the trailing -<digits> is the GOMAXPROCS suffix.
		{"BenchmarkServe/cold-start", "BenchmarkServe/cold-start", 1},
		{"BenchmarkServe/cold-start-4", "BenchmarkServe/cold-start", 4},
		{"BenchmarkX-", "BenchmarkX-", 1},
		{"BenchmarkX-+4", "BenchmarkX-+4", 1},
		{"BenchmarkX-0", "BenchmarkX-0", 1},
	} {
		name, procs := splitProcs(c.in)
		if name != c.name || procs != c.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", c.in, name, procs, c.name, c.procs)
		}
	}
}

func record(ms ...BenchMetric) *BenchRecord {
	for i := range ms {
		if ms[i].Procs == 0 {
			ms[i].Procs = 1
		}
	}
	return &BenchRecord{Config: map[string]string{}, Metrics: ms}
}

func TestCompareBenchDirections(t *testing.T) {
	base := record(
		BenchMetric{Name: "BenchmarkServe/cold", Value: 100, Unit: "p99-ms"},
		BenchMetric{Name: "BenchmarkServe/cold", Value: 50, Unit: "req/s"},
		BenchMetric{Name: "BenchmarkServe/warm", Value: 10, Unit: "p50-ms"},
		BenchMetric{Name: "BenchmarkServe/gone", Value: 5, Unit: "req/s"},
	)
	cur := record(
		// Latency up 50% — breach at 25% tolerance.
		BenchMetric{Name: "BenchmarkServe/cold", Value: 150, Unit: "p99-ms"},
		// Throughput up is an improvement, never a breach.
		BenchMetric{Name: "BenchmarkServe/cold", Value: 100, Unit: "req/s"},
		// Latency down is an improvement.
		BenchMetric{Name: "BenchmarkServe/warm", Value: 2, Unit: "p50-ms"},
		// New metric: a note, not a row.
		BenchMetric{Name: "BenchmarkServe/new", Value: 1, Unit: "p50-ms"},
	)
	rows, notes := CompareBench(base, cur, 25)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %+v", len(rows), rows)
	}
	byName := map[string]HeadlineDrift{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !byName["BenchmarkServe/cold p99-ms"].Breach {
		t.Error("latency regression not flagged")
	}
	if byName["BenchmarkServe/cold req/s"].Breach {
		t.Error("throughput improvement flagged as breach")
	}
	if byName["BenchmarkServe/warm p50-ms"].Breach {
		t.Error("latency improvement flagged as breach")
	}
	if len(notes) != 2 {
		t.Fatalf("notes = %v, want missing+new", notes)
	}

	// Throughput collapse breaches, and MIPS is a throughput.
	rows, _ = CompareBench(
		record(BenchMetric{Name: "r", Value: 100, Unit: "req/s"}, BenchMetric{Name: "m", Value: 8, Unit: "MIPS"}),
		record(BenchMetric{Name: "r", Value: 10, Unit: "req/s"}, BenchMetric{Name: "m", Value: 2, Unit: "MIPS"}), 25)
	for _, r := range rows {
		if !r.Breach {
			t.Errorf("%s collapse not flagged", r.Name)
		}
	}

	// Within tolerance passes in both directions.
	rows, _ = CompareBench(
		record(BenchMetric{Name: "l", Value: 100, Unit: "ns/op"}, BenchMetric{Name: "r", Value: 100, Unit: "req/s"}),
		record(BenchMetric{Name: "l", Value: 110, Unit: "ns/op"}, BenchMetric{Name: "r", Value: 90, Unit: "req/s"}), 25)
	for _, r := range rows {
		if r.Breach {
			t.Errorf("%s within tolerance flagged: %+v", r.Name, r)
		}
	}
}

func TestCompareBenchHostNote(t *testing.T) {
	base := record(BenchMetric{Name: "BenchmarkX", Value: 1, Unit: "ns/op"})
	base.Config["cpu"], base.Config["go"] = "Old CPU", "go1.22.0"
	same := record(BenchMetric{Name: "BenchmarkX", Value: 1, Unit: "ns/op"})
	same.Config["cpu"], same.Config["go"] = "Old CPU", "go1.22.0"
	same.Config["commit"] = "abc1234" // a new commit is not a new host
	if _, notes := CompareBench(base, same, 25); len(notes) != 0 {
		t.Fatalf("same host: notes = %v", notes)
	}

	for name, cur := range map[string]*BenchRecord{
		"cpu":        {Config: map[string]string{"cpu": "New CPU", "go": "go1.22.0"}, Metrics: base.Metrics},
		"go":         {Config: map[string]string{"cpu": "Old CPU", "go": "go1.24.0"}, Metrics: base.Metrics},
		"GOMAXPROCS": {Config: base.Config, Metrics: []BenchMetric{{Name: "BenchmarkX", Procs: 4, Value: 1, Unit: "ns/op"}}},
	} {
		rows, notes := CompareBench(base, cur, 25)
		if len(rows) != 1 || rows[0].Breach {
			t.Errorf("%s: rows = %+v, want one clean row", name, rows)
		}
		if len(notes) != 1 || !strings.Contains(notes[0], "bench host differs") ||
			!strings.Contains(notes[0], "baseline "+base.host()) || !strings.Contains(notes[0], "current "+cur.host()) {
			t.Errorf("%s: notes = %v, want one note naming both hosts", name, notes)
		}
	}
}

// TestCommittedBenchUnitsHaveDirection guards the committed record: a
// unit without a direction regresses both ways, so an improvement would
// false-alarm the watchdog.
func TestCommittedBenchUnitsHaveDirection(t *testing.T) {
	rec, err := LoadBench(filepath.Join("..", "..", "BENCH.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"go", "commit", "cpu", "pkg"} {
		if rec.Config[k] == "" {
			t.Errorf("BENCH.txt lacks a %s: line", k)
		}
	}
	for _, m := range rec.Metrics {
		if benchDirection[m.Unit] == 0 {
			t.Errorf("%s: unit %q has no regression direction", m.Name, m.Unit)
		}
	}
}

func FuzzParseBench(f *testing.F) {
	f.Add([]byte(goTestBlock + gemloadBlock))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ParseBench(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if len(rec.Metrics) == 0 {
			t.Fatal("parsed a record with no metrics")
		}
		seen := map[string]bool{}
		for _, m := range rec.Metrics {
			if !isBenchName(m.Name) || m.Procs < 1 || m.Unit == "" ||
				math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || seen[m.key()] {
				t.Fatalf("bad metric %+v", m)
			}
			seen[m.key()] = true
		}
		// A record compares cleanly against itself.
		rows, notes := CompareBench(rec, rec, 25)
		if len(rows) != len(rec.Metrics) || len(notes) != 0 {
			t.Fatalf("self-compare: %d rows for %d metrics, notes %v", len(rows), len(rec.Metrics), notes)
		}
		for _, r := range rows {
			if r.Breach {
				t.Fatalf("self-compare breach: %+v", r)
			}
		}
	})
}
