// Command benchmark is GemStone's repository benchmark: three workloads
// that load different layers of the system, each printing the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object on
// the last line of standard output. Run it from the repository root:
//
//	bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 36 --trace 0
//
// The workloads and the layers each one loads are described in
// ../BENCHMARK.json and in the per-workload files of this package.
// Diagnostics go to standard error; the line before the result carries
// the host provenance and the run's notes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what every workload reports untraced. (Peak RSS is a
// per-layer metric: on serve-mixed it moves by a third between runs with
// the order in which reused simulation buffers grow.) Each metric has one
// meaning on every workload, in terms of the workload's operations: a cold
// operation simulates from an empty cache, a warm one resubmits finished
// work and is served from the cache, a read analyses finished results.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"heap_allocs", "count"},
}

// perLayer is what every workload reports traced: the union of the
// workloads' own per-layer metrics. A workload reports a metric outside
// its own list as 0: the workload does no such work (paper-cold screens
// nothing, the batch workloads serve nothing), or, for serve-mixed's
// simulator and analysis layers, does it in worker processes and request
// handlers whose spans the benchmark does not break down.
var perLayer = []metricDef{
	{"core.plan_s", "s"},
	{"core.simulate_s", "s"},
	{"core.worker_busy_share", "ratio"},
	{"core.worker_idle_s", "s"},
	{"core.account_gap_s", "s"},
	{"core.sweep_splits", "count"},
	{"core.workload_switches", "count"},
	{"core.cache_get_s", "s"},
	{"core.cache_put_s", "s"},
	{"core.cache_hit_share", "ratio"},
	{"core.validate_s", "s"},
	{"core.screen_flagged", "count"},
	{"core.screen_atomic_s", "s"},
	{"core.screen_resim_s", "s"},
	{"core.cache_get_ms", "ms"},
	{"workload.expand_s", "s"},
	{"pipeline.s", "s"},
	{"pipeline.ooo_mips", "MIPS"},
	{"pipeline.inorder_mips", "MIPS"},
	{"mem.record_run_ms", "ms"},
	{"mem.replay_run_ms", "ms"},
	{"mem.accesses", "count"},
	{"pmu.collate_s", "s"},
	{"platform.power_s", "s"},
	{"platform.anchor_s", "s"},
	{"platform.predict_s", "s"},
	{"platform.atomic_mape_gap_pp", "pp"},
	{"platform.screen_mape_gap_pp", "pp"},
	{"stats.hca_s", "s"},
	{"stats.corr_s", "s"},
	{"stats.stepwise_s", "s"},
	{"power.build_s", "s"},
	{"dist.probe_ms", "ms"},
	{"dist.slot_wait_ms", "ms"},
	{"dist.dispatch_ms", "ms"},
	{"dist.worker_sim_ms", "ms"},
	{"dist.wire_overhead_ms", "ms"},
	{"dist.retries", "count"},
	{"serve.queued_ms", "ms"},
	{"serve.leased_ms", "ms"},
	{"serve.simulating_ms", "ms"},
	{"serve.collating_ms", "ms"},
	{"serve.post_ms", "ms"},
	{"serve.events_ms", "ms"},
	{"serve.validation_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.max_rps_at_slo", "1/s"},
	{"load.cold_tail_ms", "ms"},
	{"load.warm_tail_ms", "ms"},
	{"load.read_tail_ms", "ms"},
	{"load.lateness_ms", "ms"},
	{"load.slot_wait_ms", "ms"},
	{"host.peak_rss_mb", "MB"},
	{"obs.trace_overhead_pct", "%"},
}

// workloadDef is one benchmark workload: the per-layer metrics its traced
// run measures (a subset of perLayer) and the function that runs it.
type workloadDef struct {
	Name     string
	PerLayer []string
	Run      func(cfg runConfig) (*result, error)
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// WorkDir is a scratch directory inside the checkout, removed when the
	// run ends.
	WorkDir string
	// Smoke shrinks every workload to a few seconds for the package's own
	// tests; the numbers it produces are not comparable to full runs.
	Smoke bool
	Log   io.Writer
}

func (c runConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// result is what a workload run reports: its metric values by name, the
// operations it attempted and how many of them failed (a failed output
// check counts as a failed operation), and free-form notes for the
// provenance line.
type result struct {
	Metrics   map[string]float64
	Attempted int
	Failed    int
	Notes     map[string]any
}

func newResult() *result {
	return &result{Metrics: map[string]float64{}, Notes: map[string]any{}}
}

// check counts one output check as an attempted operation, and as a
// failed one when err is non-nil.
func (r *result) check(cfg runConfig, what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		cfg.logf("check failed: %s: %v", what, err)
	}
}

var workloads = []workloadDef{paperCold, atomicScreen, serveMixed}

// minSetups is how many times a run at least sets its workload up;
// setup_s is the median.
const minSetups = 5

// iterations is how many iterations of nominal seconds each (their
// length on a 2-vCPU host) fill a run of the given length. The count
// depends on the run length only, not on how fast this run's iterations
// happen to be: the later iterations of a process run faster than the
// first, so a count that varied with host speed would move the medians.
func iterations(seconds, nominal float64) int {
	return max(1, int(math.Round(seconds/nominal)))
}

// workRoot holds each run's scratch directory (caches), relative to the
// checkout the benchmark runs from; a run removes its own at exit.
const workRoot = ".bench_build/run"

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricValue is one reported metric in the output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's shape.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render turns a workload result into the output line. Untraced, the
// workload must produce every end-to-end metric; traced, every per-layer
// metric of its own, and the per-layer metrics of other workloads' layers
// read 0. A metric outside the list fails the run.
func render(w workloadDef, trace bool, r *result) (output, error) {
	defs, own := endToEnd, map[string]bool{}
	if trace {
		defs = perLayer
		for _, name := range w.PerLayer {
			own[name] = true
		}
	}
	out := output{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && (!trace || own[d.Name]) {
			return out, fmt.Errorf("workload %s produced no %s", w.Name, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range r.Metrics {
		if _, ok := out.Metrics[name]; !ok || (trace && !own[name]) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return out, fmt.Errorf("workload %s produced undeclared metrics %v", w.Name, extra)
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-cold, atomic-screen or serve-mixed")
	seed := fs.Uint64("seed", 1, "seed of the serve workload's arrivals, tenants and spec order (the paper workloads are seed-free)")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: want -workload paper-cold|atomic-screen|serve-mixed, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, w.Name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: dir, Log: stderr}
	start := time.Now()
	steal0, total0 := hostCPU()
	r, err := w.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	out, err := render(w, cfg.Trace, r)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	prov := map[string]any{
		"workload":  w.Name,
		"seed":      *seed,
		"seconds":   *seconds,
		"trace":     cfg.Trace,
		"wall_s":    time.Since(start).Seconds(),
		"steal_pct": stealPct(steal0, total0),
		"host":      hostProvenance(),
		"notes":     r.Notes,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
