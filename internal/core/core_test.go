package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/pmu"
	"gemstone/internal/power"
	"gemstone/internal/stats"
	"gemstone/internal/workload"
)

// Shared fixture: one reduced campaign collected once for the package.
type fixture struct {
	hwRuns, v1Runs, v2Runs *RunSet
	model                  *power.Model
	clustering             *WorkloadClustering
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if testing.Short() {
		// Three full validation campaigns plus model fits: the heavy end
		// of the suite, skipped by `make quick`.
		t.Skip("skipping full-campaign fixture in -short mode")
	}
	fixOnce.Do(func() {
		// The full validation set at one frequency keeps the fixture fast
		// while covering every workload family; the A15 at 1 GHz is the
		// operating point most of the paper's Section IV reports.
		opt := func() CollectOptions {
			return CollectOptions{
				Workloads: workload.Validation(),
				Clusters:  []string{hw.ClusterA15},
				Freqs:     map[string][]int{hw.ClusterA15: {600, 1000}},
			}
		}
		if fix.hwRuns, fixErr = Collect(context.Background(), hw.Platform(), opt()); fixErr != nil {
			return
		}
		if fix.v1Runs, fixErr = Collect(context.Background(), gem5.Platform(gem5.V1), opt()); fixErr != nil {
			return
		}
		if fix.v2Runs, fixErr = Collect(context.Background(), gem5.Platform(gem5.V2), opt()); fixErr != nil {
			return
		}
		if fix.model, fixErr = BuildPowerModel(fix.hwRuns, hw.ClusterA15,
			power.BuildOptions{Pool: power.RestrictedPool()}); fixErr != nil {
			return
		}
		fix.clustering, fixErr = ClusterWorkloads(fix.hwRuns, fix.v1Runs, hw.ClusterA15, 1000, 16)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return &fix
}

func TestValidationShapeMatchesPaper(t *testing.T) {
	f := getFixture(t)
	v1, err := Validate(f.hwRuns, f.v1Runs, hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Validate(f.hwRuns, f.v2Runs, hw.ClusterA15)
	if err != nil {
		t.Fatal(err)
	}
	// Paper T1/T5 shape: v1 strongly overestimates execution time
	// (MPE well below zero), the BP fix flips the sign to a small
	// positive value, and MAPE improves dramatically.
	if v1.MPE > -25 {
		t.Fatalf("v1 MPE = %.1f%%, want strongly negative (paper: -51%%)", v1.MPE)
	}
	if v2.MPE < 0 || v2.MPE > 30 {
		t.Fatalf("v2 MPE = %.1f%%, want small positive (paper: +10%%)", v2.MPE)
	}
	if v2.MAPE >= v1.MAPE/2 {
		t.Fatalf("BP fix should at least halve MAPE: v1 %.1f%% vs v2 %.1f%%", v1.MAPE, v2.MAPE)
	}
	// Per-frequency summaries exist for both collected frequencies.
	if _, ok := v1.ByFreq[1000]; !ok {
		t.Fatal("missing per-frequency summary")
	}
	// The PARSEC subset error differs from the full-suite error
	// (Section IV stresses the importance of diverse workloads).
	pm, _, n := v1.SuiteSummary("parsec-")
	if n == 0 {
		t.Fatal("no PARSEC workloads in summary")
	}
	if math.Abs(pm-v1.MAPE) < 1e-9 {
		t.Fatal("suite filter had no effect")
	}
}

func TestWorkloadClusteringFig3(t *testing.T) {
	f := getFixture(t)
	wc := f.clustering
	if wc.K != 16 || len(wc.Rows) != 45 {
		t.Fatalf("K=%d rows=%d", wc.K, len(wc.Rows))
	}
	// Rows are ordered by cluster designation.
	for i := 1; i < len(wc.Rows); i++ {
		if wc.Rows[i].Cluster < wc.Rows[i-1].Cluster {
			t.Fatal("Fig. 3 rows must be ordered by cluster")
		}
	}
	// Same-cluster workloads have similar errors more often than not:
	// within-cluster PE spread should be below the global spread.
	var all []float64
	for _, r := range wc.Rows {
		all = append(all, r.PE)
	}
	globalSD := stats.StdDev(all)
	var within []float64
	for _, cs := range wc.Clusters {
		if len(cs.Workloads) < 2 {
			continue
		}
		var pes []float64
		for _, r := range wc.Rows {
			if r.Cluster == cs.Label {
				pes = append(pes, r.PE)
			}
		}
		within = append(within, stats.StdDev(pes))
	}
	if len(within) == 0 {
		t.Fatal("no multi-member clusters")
	}
	if stats.Mean(within) >= globalSD {
		t.Fatalf("within-cluster PE spread (%.1f) should be below global (%.1f): clustering uninformative",
			stats.Mean(within), globalSD)
	}
	// The pathological loop workload sits in a small cluster (the paper's
	// Cluster 16 contains only par-basicmath-rad2deg).
	label := wc.Labels["par-basicmath-rad2deg"]
	size := 0
	for _, r := range wc.Rows {
		if r.Cluster == label {
			size++
		}
	}
	if size > 8 {
		t.Fatalf("rad2deg cluster has %d members; expected a small, specific cluster", size)
	}
}

func TestPMCCorrelationFig5(t *testing.T) {
	f := getFixture(t)
	rows, err := PMCErrorCorrelation(f.hwRuns, f.v1Runs, hw.ClusterA15, 1000, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 30 {
		t.Fatalf("only %d events correlated", len(rows))
	}
	byEvent := map[pmu.Event]float64{}
	for _, r := range rows {
		if r.Corr < -1-1e-9 || r.Corr > 1+1e-9 {
			t.Fatalf("correlation out of range: %+v", r)
		}
		byEvent[r.Event] = r.Corr
	}
	// Section IV-B shape: branch-rate events correlate negatively with
	// the error (branch-heavy workloads are overestimated under the BP
	// bug) and the correlation of mispredicts is weaker in magnitude.
	if byEvent[pmu.PCWriteSpec] > -0.2 {
		t.Fatalf("branch-rate correlation = %.2f, want clearly negative", byEvent[pmu.PCWriteSpec])
	}
	if byEvent[pmu.BrPred] > -0.2 {
		t.Fatalf("BR_PRED correlation = %.2f, want clearly negative", byEvent[pmu.BrPred])
	}
	// The exclusive-access events lean positive (the model's idealised
	// interconnect under-costs inter-core communication — Fig. 5 Cluster 1).
	if byEvent[pmu.LdrexSpec] < -0.1 {
		t.Fatalf("LDREX_SPEC correlation = %.2f, want non-negative", byEvent[pmu.LdrexSpec])
	}
	// Mispredicts correlate much more weakly than branch rates (the
	// paper's "negative but notably smaller in magnitude" observation).
	if math.Abs(byEvent[pmu.BrMisPred]) > math.Abs(byEvent[pmu.BrPred])-0.2 {
		t.Fatalf("BR_MIS_PRED (%.2f) should be much weaker than BR_PRED (%.2f)",
			byEvent[pmu.BrMisPred], byEvent[pmu.BrPred])
	}
	// Sorted descending by correlation.
	for i := 1; i < len(rows); i++ {
		if rows[i].Corr > rows[i-1].Corr {
			t.Fatal("rows must be sorted by correlation")
		}
	}
}

func TestGem5EventCorrelationSectionIVC(t *testing.T) {
	f := getFixture(t)
	rows, err := Gem5EventCorrelation(f.hwRuns, f.v1Runs, hw.ClusterA15, 1000, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d gem5 stats pass |r| >= 0.3", len(rows))
	}
	// The paper's Cluster A: itb_walker_cache statistics carry the largest
	// negative correlations, and the branch-predictor statistics (Cluster
	// B) are strongly negative too.
	byStat := map[string]Gem5EventCorr{}
	for _, r := range rows {
		byStat[r.Stat] = r
	}
	walker, ok := byStat["system.cpu.itb_walker_cache.overall_accesses"]
	if !ok {
		t.Fatal("itb_walker_cache.overall_accesses missing from correlated stats")
	}
	if walker.Corr > -0.51 {
		t.Fatalf("walker-cache correlation = %.2f, paper Cluster A has every member below -0.51", walker.Corr)
	}
	mis, ok := byStat["system.cpu.commit.branchMispredicts"]
	if !ok {
		t.Fatal("commit.branchMispredicts missing from correlated stats")
	}
	if mis.Corr > -0.3 {
		t.Fatalf("branchMispredicts correlation = %.2f, want <= -0.3", mis.Corr)
	}
	// The walker-cache stats and the mispredict stats cluster together or
	// adjacently — they move together across workloads (|r| high), which
	// is the causality clue Section IV-C exploits.
	if walkerMisR := statSeriesCorr(f, "system.cpu.itb_walker_cache.overall_accesses",
		"system.cpu.commit.branchMispredicts"); walkerMisR < 0.5 {
		t.Fatalf("walker traffic and mispredicts correlate at %.2f, want strong coupling", walkerMisR)
	}
}

// statSeriesCorr computes the cross-workload Pearson correlation of two
// gem5 statistics (rates) at 1 GHz on the A15 in the v1 run set.
func statSeriesCorr(f *fixture, statA, statB string) float64 {
	var a, b []float64
	names := f.v1Runs.Workloads()
	for _, name := range names {
		m, ok := f.v1Runs.Runs[RunKey{Workload: name, Cluster: hw.ClusterA15, FreqMHz: 1000}]
		if !ok {
			continue
		}
		sm := Gem5Stats(m)
		secs := sm["sim_seconds"]
		a = append(a, sm[statA]/secs)
		b = append(b, sm[statB]/secs)
	}
	return stats.Pearson(a, b)
}

func TestErrorRegressionTable3(t *testing.T) {
	f := getFixture(t)
	opt := stats.DefaultStepwiseOptions()
	opt.MaxTerms = 8
	pmcRep, err := ErrorRegressionPMC(f.hwRuns, f.v1Runs, hw.ClusterA15, 1000, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pmcRep.Selected) == 0 {
		t.Fatal("no PMC events selected")
	}
	// Section IV-D: a handful of hardware events predicts the gem5 error
	// with very high R².
	if pmcRep.R2 < 0.80 {
		t.Fatalf("PMC error regression R2 = %.3f, want >= 0.80 (paper: 0.97)", pmcRep.R2)
	}
	g5Rep, err := ErrorRegressionGem5(f.hwRuns, f.v1Runs, hw.ClusterA15, 1000, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(g5Rep.Selected) == 0 {
		t.Fatal("no gem5 stats selected")
	}
	if g5Rep.R2 < pmcRep.R2-0.15 {
		t.Fatalf("gem5-stat regression (R2=%.3f) should be at least comparable to PMC (R2=%.3f)",
			g5Rep.R2, pmcRep.R2)
	}
}

func TestEventComparisonFig6(t *testing.T) {
	f := getFixture(t)
	// Exclude the pathological cluster from means, as the paper does.
	excl := map[int]bool{f.clustering.Labels["par-basicmath-rad2deg"]: true}
	ratios, bp, err := EventComparison(f.hwRuns, f.v1Runs, hw.ClusterA15, 1000,
		f.clustering.Labels, nil, power.DefaultMapping(), excl)
	if err != nil {
		t.Fatal(err)
	}
	get := func(e pmu.Event) float64 {
		for _, r := range ratios {
			if r.Event == e {
				return r.MeanRatio
			}
		}
		t.Fatalf("event %s missing from comparison", e)
		return 0
	}
	// Fig. 6 shape checks:
	if r := get(pmu.InstRetired); r < 0.95 || r > 1.05 {
		t.Fatalf("instruction ratio = %.2f, want ~1", r)
	}
	if r := get(pmu.ITLBRefill); r > 0.7 {
		t.Fatalf("ITLB refill ratio = %.2f, want << 1 (gem5 has a 2x larger L1 ITLB)", r)
	}
	if r := get(pmu.BrMisPred); r < 3 {
		t.Fatalf("mispredict ratio = %.2f, want >> 1 (paper: ~21x)", r)
	}
	if r := get(pmu.L1ICache); r < 1.8 {
		t.Fatalf("L1I access ratio = %.2f, want > 2 (per-instruction fetch)", r)
	}
	if r := get(pmu.L1DCacheRefillWr); r < 3 {
		t.Fatalf("L1D write-refill ratio = %.2f, want >> 1 (paper: 9.9x)", r)
	}
	if r := get(pmu.L1DCacheWB); r < 3 {
		t.Fatalf("L1D writeback ratio = %.2f, want >> 1 (paper: 19x)", r)
	}
	if r := get(pmu.DTLBRefill); r < 1.1 {
		t.Fatalf("DTLB refill ratio = %.2f, want > 1 (paper: 1.7x)", r)
	}
	// BP comparison (Section IV-E): hardware ~96% vs gem5 ~65%; the worst
	// gem5 workload is the one the hardware predicts best.
	if bp.HWMeanAccuracy < 0.85 {
		t.Fatalf("HW BP accuracy = %.3f, want ~0.96", bp.HWMeanAccuracy)
	}
	if bp.Gem5MeanAccuracy > bp.HWMeanAccuracy-0.2 {
		t.Fatalf("gem5 BP accuracy = %.3f vs HW %.3f: bug not visible",
			bp.Gem5MeanAccuracy, bp.HWMeanAccuracy)
	}
	if bp.Gem5WorstAccuracy > 0.05 {
		t.Fatalf("gem5 worst accuracy = %.4f, want < 0.05 (paper: 0.86%%)", bp.Gem5WorstAccuracy)
	}
	if bp.Gem5WorstWorkload != "par-basicmath-rad2deg" {
		t.Logf("note: gem5 worst workload = %s (paper: par-basicmath-rad2deg)", bp.Gem5WorstWorkload)
	}
}

func TestPowerModelQualityTable4(t *testing.T) {
	f := getFixture(t)
	q := f.model.Quality
	if q.MAPE > 8 {
		t.Fatalf("power model MAPE = %.2f%%, want single digits (paper: 3.28%%)", q.MAPE)
	}
	if q.AdjR2 < 0.97 {
		t.Fatalf("adj R2 = %.4f, want >= 0.97 (paper: 0.996)", q.AdjR2)
	}
	if len(f.model.Events) < 3 {
		t.Fatalf("model uses %d events, expected several", len(f.model.Events))
	}
	// Restricted pool respected.
	for _, e := range f.model.Events {
		if e == pmu.UnalignedLdSt || e == pmu.VfpSpec || e == pmu.L1DCacheWB {
			t.Fatalf("restricted event %s selected", e)
		}
	}
	for _, p := range f.model.PValues {
		if p > 0.05 {
			t.Fatalf("coefficient p-value %.4f exceeds 0.05", p)
		}
	}
}

func TestPowerEnergyAnalysisFig7(t *testing.T) {
	f := getFixture(t)
	an, err := AnalyzePowerEnergy(f.model, power.DefaultMapping(),
		f.hwRuns, f.v1Runs, hw.ClusterA15, 1000, f.clustering.Labels)
	if err != nil {
		t.Fatal(err)
	}
	// Section VI headline: power error small despite large event errors;
	// energy error much larger (dominated by execution-time error) and
	// negative on average (time overestimated).
	if an.PowerMAPE > 25 {
		t.Fatalf("power MAPE = %.1f%%, want modest (paper: 10%%)", an.PowerMAPE)
	}
	if an.EnergyMAPE < 1.5*an.PowerMAPE {
		t.Fatalf("energy MAPE (%.1f%%) should dwarf power MAPE (%.1f%%)", an.EnergyMAPE, an.PowerMAPE)
	}
	if an.EnergyMPE > -10 {
		t.Fatalf("energy MPE = %.1f%%, want strongly negative (paper: -43.6%%)", an.EnergyMPE)
	}
	if len(an.Rows) < 8 {
		t.Fatalf("expected per-cluster rows, got %d", len(an.Rows))
	}
	// Component breakdowns exist and sum close to a sane power value.
	for _, row := range an.Rows {
		if len(row.HWComponents) != len(f.model.Events)+1 {
			t.Fatalf("component count %d", len(row.HWComponents))
		}
	}
}

func TestScalingAnalysisFig8(t *testing.T) {
	f := getFixture(t)
	models := map[string]*power.Model{hw.ClusterA15: f.model}
	curve, err := ScalingAnalysis(f.hwRuns, models, power.DefaultMapping(), false,
		f.clustering.Labels, hw.ClusterA15, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Mean) != 2 {
		t.Fatalf("expected 2 operating points, got %d", len(curve.Mean))
	}
	base, high := curve.Mean[0], curve.Mean[1]
	if base.Perf != 1 || base.Energy != 1 {
		t.Fatalf("baseline point must normalise to 1: %+v", base)
	}
	if high.Perf <= 1.2 {
		t.Fatalf("1 GHz perf = %.2f, want > 1.2x over 600 MHz", high.Perf)
	}
	if high.Power <= 1 {
		t.Fatalf("power must grow with frequency: %+v", high)
	}

	// Section VI speedup statistics machinery.
	perf, err := ClusterRatio(f.hwRuns, hw.ClusterA15, 600, 1000, f.clustering.Labels,
		MetricSpeedup, models, power.DefaultMapping(), false)
	if err != nil {
		t.Fatal(err)
	}
	if perf.Mean < 1.2 || perf.Mean > 1.7 {
		t.Fatalf("mean 600->1000 speedup = %.2f, want within (1.2, 1.67)", perf.Mean)
	}
	if perf.Min > perf.Mean || perf.Max < perf.Mean {
		t.Fatalf("speedup spread inconsistent: %+v", perf)
	}
	en, err := ClusterRatio(f.hwRuns, hw.ClusterA15, 600, 1000, f.clustering.Labels,
		MetricEnergyIncrease, models, power.DefaultMapping(), false)
	if err != nil {
		t.Fatal(err)
	}
	if en.Mean <= 1 {
		t.Fatalf("energy must increase with frequency, got %.2f", en.Mean)
	}
}

// TestScalingDeterministic requires the Fig. 8 analyses to agree to the
// last bit across repeated calls on one run set: their float means must
// not depend on map iteration order.
func TestScalingDeterministic(t *testing.T) {
	f := getFixture(t)
	models := map[string]*power.Model{hw.ClusterA15: f.model}
	call := func() string {
		curve, err := ScalingAnalysis(f.hwRuns, models, power.DefaultMapping(), false,
			f.clustering.Labels, hw.ClusterA15, 600)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("%#v", *curve)
		for _, metric := range []RatioMetric{MetricSpeedup, MetricEnergyIncrease} {
			r, err := ClusterRatio(f.hwRuns, hw.ClusterA15, 600, 1000, f.clustering.Labels,
				metric, models, power.DefaultMapping(), false)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%#v", r)
		}
		return out
	}
	want := call()
	for i := 1; i < 20; i++ {
		if got := call(); got != want {
			t.Fatalf("call %d differs from call 0:\n%s\n%s", i, got, want)
		}
	}
}

func TestCompareVersionsTable5(t *testing.T) {
	f := getFixture(t)
	vc, err := CompareVersions(f.hwRuns, f.v1Runs, f.v2Runs, hw.ClusterA15, 1000,
		f.model, power.DefaultMapping(), f.clustering.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if vc.V1.MPE >= 0 || vc.V2.MPE <= 0 {
		t.Fatalf("BP fix must flip the MPE sign: v1 %.1f%%, v2 %.1f%%", vc.V1.MPE, vc.V2.MPE)
	}
	if vc.EnergyV2.EnergyMAPE >= vc.EnergyV1.EnergyMAPE {
		t.Fatalf("BP fix must improve the energy MAPE: v1 %.1f%% vs v2 %.1f%%",
			vc.EnergyV1.EnergyMAPE, vc.EnergyV2.EnergyMAPE)
	}
}

func TestCollectErrors(t *testing.T) {
	pl := hw.Platform()
	_, err := Collect(context.Background(), pl, CollectOptions{
		Workloads: workload.Validation()[:1],
		Clusters:  []string{"nope"},
	})
	if err == nil {
		t.Fatal("unknown cluster must error")
	}
}

func TestRunSetHelpers(t *testing.T) {
	f := getFixture(t)
	ws := f.hwRuns.Workloads()
	if len(ws) != 45 {
		t.Fatalf("workloads = %d", len(ws))
	}
	if _, err := f.hwRuns.Get(RunKey{Workload: "none", Cluster: "a15", FreqMHz: 1000}); err == nil {
		t.Fatal("missing run must error")
	}
}
