package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gemstone"
)

// paper-cold: what a reproducing researcher runs. Phase 1 collects the
// three run sets of the paper's evaluation detailed, with GOMAXPROCS
// workers, through one fresh on-disk cache: hardware validation (45
// workloads), gem5 v1 validation (45) and hardware power (all 65, whose
// validation points hit the cache). Nearly all host time is in the
// simulator layers and core scheduling, and every simulated run is
// encoded into the cache. Phase 2 reopens the cache with an empty memory
// tier for each set, replays all three (every run a disk hit, so it
// decodes the cache codec) and runs the paper's analyses — the only place
// the stats and power kernels do real work.
//
// Its cold operation is the phase-1 campaign, its warm operation one
// phase-2 replay of the three sets, and its read the analyses that follow.
var paperCold = workloadDef{
	Name: "paper-cold",
	PerLayer: []string{
		"core.plan_s", "core.simulate_s", "core.worker_busy_share", "core.worker_idle_s",
		"core.account_gap_s", "core.sweep_splits", "core.workload_switches",
		"core.cache_get_s", "core.cache_put_s", "core.cache_hit_share", "core.validate_s",
		"workload.expand_s", "pipeline.s", "pipeline.ooo_mips", "pipeline.inorder_mips",
		"mem.record_run_ms", "mem.replay_run_ms", "mem.accesses", "pmu.collate_s",
		"platform.power_s", "stats.hca_s", "stats.corr_s", "stats.stepwise_s", "power.build_s",
		"host.peak_rss_mb", "obs.trace_overhead_pct",
	},
	Run: runPaperCold,
}

// paperSet is one run set of the campaign.
type paperSet struct {
	name string
	pl   *gemstone.Platform
	opt  gemstone.CollectOptions
}

// paperEnv is one set-up instance: a fresh cache directory and the
// campaign's run sets.
type paperEnv struct {
	dir  string
	sets []paperSet
}

// paperGrid returns the validation and power workload lists; smoke runs
// shrink them to a handful of workloads.
func paperGrid(smoke bool) (validation, all []gemstone.WorkloadProfile) {
	validation, all = gemstone.ValidationWorkloads(), gemstone.Workloads()
	if smoke {
		validation, all = validation[:3], append(validation[:3:3], all[len(all)-1])
	}
	return validation, all
}

// paperSetup builds one campaign environment: the platforms, the fresh
// cache directory, and a warm-up collection of one workload on each
// platform (into a throwaway memory cache) so the measured campaign
// starts with the simulator's code and heap warm.
func paperSetup(ctx context.Context, cfg runConfig, i int) (*paperEnv, error) {
	dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("paper-cache-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	validation, all := paperGrid(cfg.Smoke)
	hw, v1 := gemstone.HardwarePlatform(), gemstone.Gem5Platform(gemstone.V1)
	for _, pl := range []*gemstone.Platform{hw, v1} {
		if _, err := gemstone.Collect(ctx, pl, gemstone.CollectOptions{
			Workloads: validation[:1],
			Cache:     gemstone.NewMemoryRunCache(0),
		}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &paperEnv{dir: dir, sets: []paperSet{
		{"hw-validation", hw, gemstone.CollectOptions{Workloads: validation}},
		{"gem5-v1", v1, gemstone.CollectOptions{Workloads: validation}},
		{"hw-power", hw, gemstone.CollectOptions{Workloads: all}},
	}}, nil
}

// paperIter is one measured iteration's outcome.
type paperIter struct {
	campaign, allocs, peakRSS float64
	replaySecs, analysesSecs  []float64     // phase-2 samples
	phase1, replay            collectLayers // traced iterations only
	accesses                  float64
	kernelTimes
}

// kernelTimes is the host seconds spent in calls into each analysis
// kernel.
type kernelTimes struct {
	validate, hca, corr, stepwise, build float64
}

func runPaperCold(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := newResult()
	rss := startRSSSampler()
	defer rss.close()
	var setups []float64
	setup := func() (*paperEnv, error) {
		runtime.GC()
		t0 := time.Now()
		env, err := paperSetup(ctx, cfg, len(setups))
		setups = append(setups, time.Since(t0).Seconds())
		return env, err
	}

	var iters []paperIter
	n := iterations(cfg.Seconds, paperIterSeconds)
	if cfg.Trace {
		n = 2
	}
	for i := 0; i < n; i++ {
		env, err := setup()
		if err != nil {
			return nil, err
		}
		// A traced run measures one untraced iteration, then one traced.
		traced := cfg.Trace && i == 1
		it, err := paperIteration(ctx, cfg, res, env, traced, rss)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(env.dir)
		iters = append(iters, it)
		cfg.logf("paper-cold: iteration %d: campaign %.3fs replay %.3fs analyses %.3fs",
			i, it.campaign, median(it.replaySecs), median(it.analysesSecs))
	}
	for len(setups) < minSetups {
		env, err := setup()
		if err != nil {
			return nil, err
		}
		os.RemoveAll(env.dir)
	}
	res.Notes["iterations"] = len(iters)
	res.Notes["setup_samples_s"] = setups

	if !cfg.Trace {
		var campaign, replay, analyses, alloc []float64
		for _, it := range iters {
			campaign = append(campaign, it.campaign)
			replay = append(replay, it.replaySecs...)
			analyses = append(analyses, it.analysesSecs...)
			alloc = append(alloc, it.allocs)
		}
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["cold_p50_ms"] = 1e3 * median(campaign)
		res.Metrics["warm_p50_ms"] = 1e3 * median(replay)
		res.Metrics["read_p50_ms"] = 1e3 * median(analyses)
		res.Metrics["heap_allocs"] = median(alloc)
		res.Notes["campaign_samples_s"] = campaign
		res.Notes["replay_samples_s"] = replay
		res.Notes["analyses_samples_s"] = analyses
		return res, nil
	}

	plain, tr := iters[0], iters[1]
	l := tr.phase1
	m := res.Metrics
	m["core.plan_s"] = l.Plan
	m["core.simulate_s"] = l.Simulate
	m["core.worker_busy_share"] = l.Busy / l.Budget
	m["core.worker_idle_s"] = l.Budget - l.Busy
	m["core.sweep_splits"] = float64(l.SweepSplits)
	m["core.workload_switches"] = float64(l.Switches)
	// Cache gets span both phases: phase 1's lookups (mostly misses) and
	// phase 2's disk hits.
	m["core.cache_get_s"] = l.CacheGet + tr.replay.CacheGet
	m["core.cache_put_s"] = l.CachePut
	m["core.cache_hit_share"] = float64(l.Hits+tr.replay.Hits) / float64(max(l.Gets+tr.replay.Gets, 1))
	m["core.validate_s"] = tr.validate
	m["workload.expand_s"] = l.Expand
	m["pipeline.s"] = l.Pipeline
	m["pipeline.ooo_mips"] = mips(l.InstsByCluster[gemstone.ClusterA15], l.PipeByCluster[gemstone.ClusterA15])
	m["pipeline.inorder_mips"] = mips(l.InstsByCluster[gemstone.ClusterA7], l.PipeByCluster[gemstone.ClusterA7])
	m["mem.record_run_ms"] = meanMS(l.RecordPipe, l.RecordRuns)
	m["mem.replay_run_ms"] = meanMS(l.ReplayPipe, l.ReplayRuns)
	m["mem.accesses"] = tr.accesses
	m["pmu.collate_s"] = l.Collate
	m["platform.power_s"] = l.Power
	m["stats.hca_s"] = tr.hca
	m["stats.corr_s"] = tr.corr
	m["stats.stepwise_s"] = tr.stepwise
	m["power.build_s"] = tr.build
	m["host.peak_rss_mb"] = plain.peakRSS
	m["obs.trace_overhead_pct"] = 100 * (tr.campaign - plain.campaign) / plain.campaign
	// The phase-1 account: the campaign engine's wall time is the sum of
	// its collect spans; what is left of the campaign's time is the benchmark's own
	// bookkeeping between campaigns. Worker time inside the collects
	// splits into busy (cache and simulate spans) and idle (scheduling,
	// bookkeeping and the tail wait for the last job).
	m["core.account_gap_s"] = tr.campaign - l.CollectWall
	res.Notes["phase1_collect_wall_s"] = l.CollectWall
	res.Notes["traced_campaign_s"] = tr.campaign
	res.Notes["untraced_campaign_s"] = plain.campaign
	res.Notes["phase2_cache_get_s"] = tr.replay.CacheGet
	res.Notes["record_runs"] = l.RecordRuns
	res.Notes["replay_runs"] = l.ReplayRuns
	return res, nil
}

// paperIteration runs both phases once on env and checks their outputs.
func paperIteration(ctx context.Context, cfg runConfig, res *result, env *paperEnv, traced bool, rss *rssSampler) (paperIter, error) {
	var it paperIter
	var tr1, tr2 *gemstone.Tracer
	if traced {
		tr1, tr2 = gemstone.NewTracer(), gemstone.NewTracer()
	}
	rss.start()
	alloc0 := heapAllocs()

	// Phase 1: the cold campaign through one fresh two-tier cache.
	t0 := time.Now()
	cache, err := gemstone.OpenRunCache(env.dir)
	if err != nil {
		return it, err
	}
	sets := make([]*gemstone.RunSet, len(env.sets))
	for i, s := range env.sets {
		opt := s.opt
		opt.Cache, opt.Tracer = cache, tr1
		if sets[i], err = gemstone.Collect(ctx, s.pl, opt); err != nil {
			return it, fmt.Errorf("collect %s: %w", s.name, err)
		}
	}
	it.campaign = time.Since(t0).Seconds()

	archives := make([][]byte, len(sets))
	for i, rs := range sets {
		if archives[i], err = archive(rs); err != nil {
			return it, err
		}
		if !cfg.Smoke {
			res.check(cfg, env.sets[i].name+" digest", checkDigest(env.sets[i].name, archives[i]))
		}
	}

	// Phase 2, repeated: its run is short, so several samples steady its
	// median. A traced iteration runs it once, under the tracer.
	reps := phase2Reps
	if traced {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		replay, analyses, err := paperPhase2(ctx, cfg, res, env, archives, tr2, &it)
		if err != nil {
			return it, err
		}
		it.replaySecs = append(it.replaySecs, replay)
		it.analysesSecs = append(it.analysesSecs, analyses)
		if r == 0 {
			it.allocs = heapAllocs() - alloc0
		}
	}
	it.peakRSS = rss.take()

	if traced {
		it.phase1 = collectBreakdown(treeFromTracer(tr1))
		it.replay = collectBreakdown(treeFromTracer(tr2))
		// Simulated memory accesses of every distinct run (the power set
		// shares its validation points with the hardware validation set).
		type runID struct {
			platform string
			key      gemstone.RunKey
		}
		seen := map[runID]bool{}
		for _, rs := range sets {
			for k, m := range rs.Runs {
				if id := (runID{rs.Platform, k}); !seen[id] {
					seen[id] = true
					s := m.Sample
					it.accesses += float64(s.L1I.Accesses() + s.L1D.Accesses() + s.L2.Accesses())
				}
			}
		}
	}
	return it, nil
}

// paperIterSeconds is an iteration's length on a 2-vCPU host.
const paperIterSeconds = 12

// phase2Reps is how many times an untraced iteration runs phase 2.
const phase2Reps = 6

// paperPhase2 reopens the cache with an empty memory tier for each set,
// replays all three sets from disk and runs the paper's analyses,
// checking that every run was a cache hit, that the replays are byte for
// byte the phase-1 archives and that the analyses match their golden
// digest. It returns the host seconds of the replay and of the analyses.
func paperPhase2(ctx context.Context, cfg runConfig, res *result, env *paperEnv, archives [][]byte, tracer *gemstone.Tracer, it *paperIter) (replaySecs, analysesSecs float64, err error) {
	// Each timed part starts from a collected heap, so a collection left
	// over from earlier work does not land in it at random.
	runtime.GC()
	t0 := time.Now()
	replays := make([]*gemstone.RunSet, len(env.sets))
	var hits, simulated int
	for i, s := range env.sets {
		disk, err := gemstone.OpenRunCache(env.dir)
		if err != nil {
			return 0, 0, err
		}
		counts := gemstone.NewCollectMetrics()
		opt := s.opt
		opt.Cache, opt.Tracer, opt.Observer = disk, tracer, counts
		if replays[i], err = gemstone.Collect(ctx, s.pl, opt); err != nil {
			return 0, 0, fmt.Errorf("replay %s: %w", s.name, err)
		}
		st := counts.Stats()
		hits += st.CacheHits
		simulated += st.Simulated
	}
	replaySecs = time.Since(t0).Seconds()
	runtime.GC()
	t0 = time.Now()
	an, t1, err := paperAnalyses(replays[0], replays[1], replays[2], &it.kernelTimes)
	if err != nil {
		return 0, 0, err
	}
	analysesSecs = time.Since(t0).Seconds()

	for i, rs := range replays {
		b, err := archive(rs)
		if err != nil {
			return 0, 0, err
		}
		res.check(cfg, env.sets[i].name+" replay", checkIdentical(env.sets[i].name, archives[i], b))
	}
	var replayErr error
	if simulated != 0 {
		replayErr = fmt.Errorf("phase 2 simulated %d runs (%d cache hits); want every run replayed", simulated, hits)
	}
	res.check(cfg, "replay all hits", replayErr)
	if !cfg.Smoke {
		res.check(cfg, "paper-analyses digest", checkDigest("paper-analyses", an))
	}
	res.Notes["phase2_disk_hits"] = hits
	res.Notes["t1_mape"] = t1
	return replaySecs, analysesSecs, nil
}

// paperAnalysesOut is every analysis phase 2 regenerates, digested as one
// canonical JSON document.
type paperAnalysesOut struct {
	pairAnalysesOut
	T4      []*gemstone.PowerModel
	Fig7    []*gemstone.PowerEnergyAnalysis
	Fig8    []*gemstone.ScalingCurve
	Fig8Sec []gemstone.SpeedupStats
}

// pairAnalysesOut is every analysis that compares a hardware run set with
// a simulated one.
type pairAnalysesOut struct {
	T1     []*gemstone.ValidationSummary
	Fig3   *gemstone.WorkloadClustering
	Fig5   []gemstone.EventCorr
	T2     []gemstone.Gem5EventCorr
	T3     []*gemstone.RegressionReport
	Fig6   []gemstone.EventRatio
	Fig6BP *gemstone.BPComparison
}

// timed adds fn's host seconds to *acc.
func timed(acc *float64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*acc += time.Since(t0).Seconds()
	return err
}

// pairAnalyses runs T1 (both clusters), Fig 3, Fig 5, T2, T3 (PMC and
// gem5) and Fig 6 on a hardware and a simulated run set, timing the
// calls into each analysis kernel.
func pairAnalyses(hw, sim *gemstone.RunSet, kt *kernelTimes) (pairAnalysesOut, error) {
	var out pairAnalysesOut
	a15, a7 := gemstone.ClusterA15, gemstone.ClusterA7
	if err := timed(&kt.validate, func() error {
		for _, cl := range []string{a15, a7} {
			vs, err := gemstone.Validate(hw, sim, cl)
			if err != nil {
				return fmt.Errorf("T1 %s: %w", cl, err)
			}
			out.T1 = append(out.T1, vs)
		}
		return nil
	}); err != nil {
		return out, err
	}
	if err := timed(&kt.hca, func() (err error) {
		out.Fig3, err = gemstone.ClusterWorkloads(hw, sim, a15, 1000, 16)
		return err
	}); err != nil {
		return out, fmt.Errorf("Fig 3: %w", err)
	}
	if err := timed(&kt.corr, func() (err error) {
		if out.Fig5, err = gemstone.PMCErrorCorrelation(hw, sim, a15, 1000, 30); err != nil {
			return fmt.Errorf("Fig 5: %w", err)
		}
		if out.T2, err = gemstone.Gem5EventCorrelation(hw, sim, a15, 1000, 0.3, 8); err != nil {
			return fmt.Errorf("T2: %w", err)
		}
		return nil
	}); err != nil {
		return out, err
	}
	if err := timed(&kt.stepwise, func() error {
		sw := gemstone.DefaultStepwiseOptions()
		sw.MaxTerms = 8
		pmc, err := gemstone.ErrorRegressionPMC(hw, sim, a15, 1000, sw)
		if err != nil {
			return fmt.Errorf("T3 PMC: %w", err)
		}
		g5, err := gemstone.ErrorRegressionGem5(hw, sim, a15, 1000, sw)
		if err != nil {
			return fmt.Errorf("T3 gem5: %w", err)
		}
		out.T3 = []*gemstone.RegressionReport{pmc, g5}
		return nil
	}); err != nil {
		return out, err
	}
	excl := map[int]bool{}
	if l, ok := out.Fig3.Labels["par-basicmath-rad2deg"]; ok {
		excl[l] = true
	}
	var err error
	if out.Fig6, out.Fig6BP, err = gemstone.EventComparison(hw, sim, a15, 1000, out.Fig3.Labels, nil, gemstone.DefaultMapping(), excl); err != nil {
		return out, fmt.Errorf("Fig 6: %w", err)
	}
	return out, nil
}

// paperAnalyses runs the pair analyses on the validation sets, then T4
// (both clusters), Fig 7 and Fig 8, timing the calls into each analysis
// kernel, and returns the canonical encoding of their results and the
// Table-1 MAPE per cluster.
func paperAnalyses(hwVal, v1, hwPower *gemstone.RunSet, kt *kernelTimes) ([]byte, map[string]float64, error) {
	var out paperAnalysesOut
	var err error
	if out.pairAnalysesOut, err = pairAnalyses(hwVal, v1, kt); err != nil {
		return nil, nil, err
	}
	a15, a7 := gemstone.ClusterA15, gemstone.ClusterA7
	mapping := gemstone.DefaultMapping()
	labels := out.Fig3.Labels
	models := map[string]*gemstone.PowerModel{}
	if err := timed(&kt.build, func() error {
		for _, cl := range []string{a15, a7} {
			m, err := gemstone.BuildPowerModel(hwPower, cl, gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()})
			if err != nil {
				return fmt.Errorf("T4 %s: %w", cl, err)
			}
			models[cl] = m
			out.T4 = append(out.T4, m)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for _, cl := range []string{a15, a7} {
		pe, err := gemstone.AnalyzePowerEnergy(models[cl], mapping, hwVal, v1, cl, 1000, labels)
		if err != nil {
			return nil, nil, fmt.Errorf("Fig 7 %s: %w", cl, err)
		}
		out.Fig7 = append(out.Fig7, pe)
	}
	for _, sim := range []bool{false, true} {
		rs := hwVal
		if sim {
			rs = v1
		}
		curve, err := gemstone.ScalingAnalysis(rs, models, mapping, sim, labels, a7, 200)
		if err != nil {
			return nil, nil, fmt.Errorf("Fig 8: %w", err)
		}
		out.Fig8 = append(out.Fig8, curve)
		for _, metric := range []gemstone.RatioMetric{gemstone.MetricSpeedup, gemstone.MetricEnergyIncrease} {
			r, err := gemstone.ClusterRatio(rs, a15, 600, 1800, labels, metric, models, mapping, sim)
			if err != nil {
				return nil, nil, fmt.Errorf("Fig 8 ratio: %w", err)
			}
			out.Fig8Sec = append(out.Fig8Sec, r)
		}
	}
	b, err := jsonDigestBytes(out)
	t1 := map[string]float64{}
	for _, vs := range out.T1 {
		t1[vs.Cluster] = vs.MAPE
	}
	return b, t1, err
}
