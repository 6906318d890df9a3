package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"gemstone"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesWorkloads checks that BENCHMARK.json and this
// package declare the same workloads and metrics, with the same units,
// under valid names, and that every per-layer metric is measured by some
// workload.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	declared := map[string]map[string]string{"end_to_end": {}, "per_layer": {}} // kind → name → unit
	for _, m := range b.EndToEnd {
		declared["end_to_end"][m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		declared["per_layer"][m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	for kind, defs := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
		if len(defs) != len(declared[kind]) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(declared[kind]), kind, len(defs))
		}
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q has an invalid name or unit %q", kind, d.Name, d.Unit)
			}
			switch unit, ok := declared[kind][d.Name]; {
			case !ok:
				t.Errorf("the benchmark reports %s metric %s, which BENCHMARK.json does not list", kind, d.Name)
			case unit != d.Unit:
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, d.Unit, unit)
			}
		}
	}
	measured := map[string]bool{}
	for _, w := range workloads {
		for _, name := range w.PerLayer {
			if _, ok := declared["per_layer"][name]; !ok {
				t.Errorf("%s measures per-layer metric %s, which BENCHMARK.json does not list", w.Name, name)
			}
			measured[name] = true
		}
	}
	for name := range declared["per_layer"] {
		if !measured[name] {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, which no workload measures", name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every declared metric with its unit, all correct, and
// that the traced run measures every per-layer metric of the workload's
// own.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{Seed: 7, Seconds: 4, Trace: trace, WorkDir: t.TempDir(), Smoke: true}
				if testing.Verbose() {
					cfg.Log = os.Stderr
				}
				r, err := w.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := render(w, trace, r)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed", out.Correct, out.Failed, out.Attempted)
				}
				want := endToEnd
				if trace {
					want = perLayer
					for _, name := range w.PerLayer {
						if _, ok := r.Metrics[name]; !ok {
							t.Errorf("traced run did not measure %s", name)
						}
					}
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("printed %d metrics, declared %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					if mv, ok := out.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
						t.Errorf("metric %s missing or not in %s", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// TestRenderRejectsForeignMetrics checks that a workload can neither omit
// a metric it measures nor report one of another workload's layers, and
// that the per-layer metrics of other layers print as 0.
func TestRenderRejectsForeignMetrics(t *testing.T) {
	r := newResult()
	for _, d := range endToEnd {
		r.Metrics[d.Name] = 1
	}
	if _, err := render(paperCold, false, r); err != nil {
		t.Fatalf("complete result rejected: %v", err)
	}
	delete(r.Metrics, "cold_p50_ms")
	if _, err := render(paperCold, false, r); err == nil {
		t.Error("paper-cold omitted cold_p50_ms without complaint")
	}

	r = newResult()
	for _, name := range paperCold.PerLayer {
		r.Metrics[name] = 1
	}
	out, err := render(paperCold, true, r)
	if err != nil {
		t.Fatalf("complete traced result rejected: %v", err)
	}
	if v := out.Metrics["dist.dispatch_ms"]; v.Value != 0 || v.Unit != "ms" {
		t.Errorf("paper-cold's dist.dispatch_ms printed as %+v, want 0 ms", v)
	}
	r.Metrics["dist.dispatch_ms"] = 1
	if _, err := render(paperCold, true, r); err == nil {
		t.Error("paper-cold reported serve-mixed's dist.dispatch_ms without complaint")
	}
	delete(r.Metrics, "dist.dispatch_ms")
	delete(r.Metrics, "core.plan_s")
	if _, err := render(paperCold, true, r); err == nil {
		t.Error("paper-cold omitted core.plan_s without complaint")
	}
}

// TestChecksRejectCorruptedOutputs shows that every output check fails
// on a corrupted output.
func TestChecksRejectCorruptedOutputs(t *testing.T) {
	rs, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), gemstone.CollectOptions{
		Workloads: gemstone.ValidationWorkloads()[:1],
		Clusters:  []string{gemstone.ClusterA7},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := archive(rs)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range rs.Runs {
		m.Seconds *= 1 + 1e-12
		rs.Runs[k] = m
		break
	}
	bad, err := archive(rs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("paper-cold archive digest", func(t *testing.T) {
		for _, name := range []string{"hw-validation", "gem5-v1", "hw-power", "paper-analyses", "screen-hw", "screen-sim", "screen-analyses"} {
			if checkDigest(name, bad) == nil {
				t.Errorf("%s: corrupted archive matched the golden digest", name)
			}
		}
		if err := checkDigest("no-such-output", good); err == nil {
			t.Error("an output without a golden digest passed")
		}
	})
	t.Run("paper-cold analyses digest", func(t *testing.T) {
		digestOf := func(v float64) string {
			b, err := jsonDigestBytes(map[string]float64{"mape": v})
			if err != nil {
				t.Fatal(err)
			}
			return digest(b)
		}
		base := 37.78127589784753
		if digestOf(base) != digestOf(37.78127589784755) {
			t.Error("last-bit noise changed the analyses digest")
		}
		if digestOf(base) == digestOf(base*(1+1e-9)) {
			t.Error("a changed figure kept the analyses digest")
		}
	})
	t.Run("paper-cold replay identity", func(t *testing.T) {
		if err := checkIdentical("hw-validation", good, append([]byte(nil), good...)); err != nil {
			t.Errorf("identical replay rejected: %v", err)
		}
		if checkIdentical("hw-validation", good, bad) == nil {
			t.Error("corrupted replay passed")
		}
	})
	t.Run("atomic-screen pinned sets", func(t *testing.T) {
		res := newResult()
		if _, err := checkScreen(runConfig{}, res, &gemstone.ScreenResult{HW: rs, Sim: rs}); err != nil {
			t.Fatal(err)
		}
		// Both set digests and the flagged count are wrong.
		if res.Failed != 3 || res.Attempted != 3 {
			t.Errorf("corrupted screen: %d of %d checks failed, want 3 of 3", res.Failed, res.Attempted)
		}
	})
	t.Run("serve-mixed terminal frames", func(t *testing.T) {
		stream := func(types ...string) sseFrames {
			var b strings.Builder
			for i, typ := range types {
				data, _ := json.Marshal(map[string]any{"seq": i + 1, "type": typ, "mape": 12.5})
				b.WriteString("event: " + typ + "\nid: 1\ndata: " + string(data) + "\n\n")
			}
			fr, err := readEvents(strings.NewReader(b.String()))
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}
		if err := checkTerminal(stream("submitted", "started", "validated", "done")); err != nil {
			t.Errorf("well-formed stream rejected: %v", err)
		}
		for _, bad := range [][]string{
			{"submitted", "started"},
			{"submitted", "done", "done"},
			{"submitted", "error"},
			{"submitted", "done", "error"},
		} {
			if checkTerminal(stream(bad...)) == nil {
				t.Errorf("stream %v passed", bad)
			}
		}
	})
	t.Run("serve-mixed warm MAPE", func(t *testing.T) {
		orig := campaignRec{id: "c-000001", mape: 12.5}
		if err := checkWarm(sseFrames{mape: 12.5, jobs: 2, cacheHits: 2}, orig); err != nil {
			t.Errorf("faithful warm rejected: %v", err)
		}
		if checkWarm(sseFrames{mape: 12.500000001, jobs: 2, cacheHits: 2}, orig) == nil {
			t.Error("warm MAPE differing from its cold original passed")
		}
		if checkWarm(sseFrames{mape: 12.5, jobs: 2, cacheHits: 1}, orig) == nil {
			t.Error("warm campaign that re-simulated passed")
		}
	})
	t.Run("serve-mixed reconciliation", func(t *testing.T) {
		if err := checkCounts(40, 0, 40); err != nil {
			t.Errorf("exact counts rejected: %v", err)
		}
		if checkCounts(41, 0, 40) == nil || checkCounts(40, 1, 40) == nil || checkCounts(39, 0, 40) == nil {
			t.Error("mismatched campaign counts passed")
		}
	})
}
