package ledger

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// BenchMetric is one value/unit pair of one result line in the standard
// Go benchmark format, the text `go test -bench` prints:
//
//	BenchmarkCollect_ColdCache-4   2   2852608603 ns/op   59141080 B/op   1768 allocs/op
//
// yields three metrics. Name has the trailing -GOMAXPROCS suffix
// stripped and Procs records it (1 when absent, as go test omits it at
// GOMAXPROCS=1), so rows recorded at different GOMAXPROCS still match.
type BenchMetric struct {
	Name  string
	Procs int
	Value float64
	Unit  string
}

// key identifies a metric across records: the stripped name and the
// unit (neither contains a space).
func (m BenchMetric) key() string { return m.Name + " " + m.Unit }

// BenchRecord is one parsed benchmark file: its metrics in file order
// and its config lines ("cpu: …", "go: …", "commit: …", "pkg: …"). A key
// that repeats — go test prints goos/goarch/cpu once per package — keeps
// its last value.
type BenchRecord struct {
	Config  map[string]string
	Metrics []BenchMetric
}

// LoadBench reads and parses a benchmark file such as BENCH.txt.
func LoadBench(path string) (*BenchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ParseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// ParseBench reads the Go benchmark format. Lines that are neither
// config nor results (PASS, ok, benchmark log output) are skipped. A
// result line — a Benchmark name and an iteration count — must go on
// with value/unit pairs of finite values; anything else is an error, as
// are a metric that appears twice and a record with no metrics at all.
func ParseBench(r io.Reader) (*BenchRecord, error) {
	rec := &BenchRecord{Config: map[string]string{}}
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if key, val, ok := benchConfig(line); ok {
			rec.Config[key] = val
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || !isBenchName(f[0]) {
			continue
		}
		if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
			continue
		}
		pairs := f[2:]
		if len(pairs) == 0 || len(pairs)%2 != 0 {
			return nil, fmt.Errorf("line %d: %s: want value/unit pairs after the iteration count", n, f[0])
		}
		name, procs := splitProcs(f[0])
		for i := 0; i < len(pairs); i += 2 {
			v, err := strconv.ParseFloat(pairs[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("line %d: %s: bad value %q", n, f[0], pairs[i])
			}
			m := BenchMetric{Name: name, Procs: procs, Value: v, Unit: pairs[i+1]}
			if seen[m.key()] {
				return nil, fmt.Errorf("line %d: duplicate metric %s", n, m.key())
			}
			seen[m.key()] = true
			rec.Metrics = append(rec.Metrics, m)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Metrics) == 0 {
		return nil, errors.New("no benchmark results")
	}
	return rec, nil
}

// benchConfig splits a "key: value" config line. The key starts with a
// lower-case letter and holds no spaces or upper-case letters.
func benchConfig(line string) (key, val string, ok bool) {
	key, val, ok = strings.Cut(line, ":")
	first, _ := utf8.DecodeRuneInString(key)
	if !ok || !unicode.IsLower(first) || strings.ContainsFunc(key, func(r rune) bool {
		return unicode.IsSpace(r) || unicode.IsUpper(r)
	}) {
		return "", "", false
	}
	if val != "" && val[0] != ' ' && val[0] != '\t' {
		return "", "", false
	}
	return key, strings.TrimSpace(val), true
}

// isBenchName reports whether a field names a benchmark: "Benchmark"
// not followed by a lower-case letter.
func isBenchName(f string) bool {
	rest, ok := strings.CutPrefix(f, "Benchmark")
	next, _ := utf8.DecodeRuneInString(rest)
	return ok && !unicode.IsLower(next)
}

// splitProcs strips the -GOMAXPROCS suffix go test appends when
// GOMAXPROCS is not 1. Only a trailing -<digits> is a suffix, so a dash
// inside a sub-benchmark's own name survives.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	digits := name[i+1:]
	if digits == "" || strings.Trim(digits, "0123456789") != "" {
		return name, 1
	}
	p, err := strconv.Atoi(digits)
	if err != nil || p == 0 {
		return name, 1
	}
	return name[:i], p
}

// host summarises where a record was measured: CPU model, Go version
// and the GOMAXPROCS values its result names carry.
func (r *BenchRecord) host() string {
	var procs []string
	for _, m := range r.Metrics {
		if p := strconv.Itoa(m.Procs); !slices.Contains(procs, p) {
			procs = append(procs, p)
		}
	}
	return fmt.Sprintf("cpu=%q go=%s GOMAXPROCS=%s", r.Config["cpu"], r.Config["go"], strings.Join(procs, ","))
}

// benchDirection says which way each recorded unit regresses: +1 when
// bigger is worse, −1 when smaller is worse. A unit missing here
// regresses both ways — any movement beyond tolerance is flagged, even
// an improvement — so every unit BENCH.txt records is listed.
var benchDirection = map[string]int{
	"ns/op":     1,
	"B/op":      1,
	"allocs/op": 1,
	"p50-ms":    1, // gemload latency percentiles
	"p95-ms":    1,
	"p99-ms":    1,
	"MIPS":      -1, // BenchmarkSimulatorThroughput
	"req/s":     -1, // gemload throughput
}

// CompareBench compares a current benchmark record against the
// committed baseline, one direction-aware HeadlineDrift row per (name,
// unit) metric, named "<name> <unit>". tolPct is the allowed regression
// in percent of the baseline value (0 = 25). Metrics present on only
// one side become notes, not breaches — a new benchmark must not fail
// the watchdog — and so does a host change (CPU, Go version or
// GOMAXPROCS) between the two records.
func CompareBench(base, cur *BenchRecord, tolPct float64) (rows []HeadlineDrift, notes []string) {
	if tolPct <= 0 {
		tolPct = 25
	}
	if b, c := base.host(), cur.host(); b != c {
		notes = append(notes, fmt.Sprintf("bench host differs: baseline %s; current %s", b, c))
	}
	curByKey := map[string]BenchMetric{}
	for _, m := range cur.Metrics {
		curByKey[m.key()] = m
	}
	seen := map[string]bool{}
	for _, b := range base.Metrics {
		seen[b.key()] = true
		c, ok := curByKey[b.key()]
		if !ok {
			notes = append(notes, fmt.Sprintf("bench: %s missing from current run", b.key()))
			continue
		}
		tol := math.Abs(b.Value) * tolPct / 100
		delta := c.Value - b.Value
		var breach bool
		switch benchDirection[b.Unit] {
		case 1:
			breach = delta > tol
		case -1:
			breach = -delta > tol
		default:
			breach = math.Abs(delta) > tol
		}
		rows = append(rows, HeadlineDrift{
			Name:      b.key(),
			Base:      b.Value,
			Cur:       c.Value,
			Delta:     delta,
			Tolerance: tol,
			Breach:    breach,
		})
	}
	for _, c := range cur.Metrics {
		if !seen[c.key()] {
			notes = append(notes, fmt.Sprintf("bench: %s new in current run", c.key()))
		}
	}
	return rows, notes
}
