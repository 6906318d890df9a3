package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"gemstone"
)

// atomic-screen: gemstone.Screen(hardware, gem5 v1) over the validation
// grid at default options. The atomic predictor (anchor runs,
// extrapolation, DVFS replay) does most of the work and only the flagged
// points simulate in detail, so it loads the simulator layers differently
// from paper-cold, and it is where the fast tier's accuracy is measured.
//
// Its cold operation is a screen through a fresh memory cache, its warm
// operation the same screen again through the cache the cold one filled,
// and its read the hardware-against-simulation analyses (T1, Fig 3, Fig 5,
// T2, T3, Fig 6) on the screened run sets: the fast tier's conclusions.
var atomicScreen = workloadDef{
	Name: "atomic-screen",
	PerLayer: []string{
		"core.plan_s", "core.simulate_s", "core.worker_busy_share", "core.worker_idle_s",
		"core.sweep_splits", "core.workload_switches",
		"core.cache_get_s", "core.cache_put_s", "core.cache_hit_share", "core.validate_s",
		"core.screen_flagged", "core.screen_atomic_s", "core.screen_resim_s",
		"core.account_gap_s", "workload.expand_s", "pipeline.s", "pipeline.ooo_mips",
		"pipeline.inorder_mips", "mem.record_run_ms", "mem.replay_run_ms", "pmu.collate_s",
		"platform.anchor_s", "platform.predict_s",
		"platform.power_s", "platform.atomic_mape_gap_pp", "platform.screen_mape_gap_pp",
		"stats.hca_s", "stats.corr_s", "stats.stepwise_s", "host.peak_rss_mb", "obs.trace_overhead_pct",
	},
	Run: runAtomicScreen,
}

// Warm screens and reads are short, so each iteration runs several and
// their medians are reported.
const (
	screenWarmReps = 25
	screenReadReps = 15
)

// screenIterSeconds is an iteration's length on a 2-vCPU host.
const screenIterSeconds = 5

// screenIter is one measured iteration's outcome.
type screenIter struct {
	screen, allocs, peakRSS float64
	atomic, resim           float64   // host seconds of the cold screen's atomic sweeps and detailed re-simulations
	warm, read              []float64 // s
	res                     *gemstone.ScreenResult
	layers                  collectLayers // traced iterations only
	kernelTimes                           // of the first read
}

// screenOnce runs one screen over workloads through cache, timing its
// sub-campaigns by tier through the Collect hook. It returns the screen's
// host seconds.
func screenOnce(ctx context.Context, hw, v1 *gemstone.Platform, workloads []gemstone.WorkloadProfile, cache gemstone.RunCache, tracer *gemstone.Tracer, observer *gemstone.CollectMetrics, it *screenIter) (*gemstone.ScreenResult, float64, error) {
	t0 := time.Now()
	opt := gemstone.CollectOptions{Workloads: workloads, Cache: cache, Tracer: tracer}
	if observer != nil {
		opt.Observer = observer
	}
	res, err := gemstone.Screen(ctx, hw, v1, gemstone.ScreenOptions{
		Options: opt,
		Collect: func(ctx context.Context, pl *gemstone.Platform, opt gemstone.CollectOptions) (*gemstone.RunSet, error) {
			t := time.Now()
			rs, err := gemstone.Collect(ctx, pl, opt)
			if opt.Fidelity == gemstone.FidelityAtomic {
				it.atomic += time.Since(t).Seconds()
			} else {
				it.resim += time.Since(t).Seconds()
			}
			return rs, err
		},
	})
	if err != nil {
		return nil, 0, fmt.Errorf("screen: %w", err)
	}
	return res, time.Since(t0).Seconds(), nil
}

// screenIteration runs one cold screen, its warm repeats and its reads,
// and checks their outputs.
func screenIteration(ctx context.Context, cfg runConfig, res *result, hw, v1 *gemstone.Platform, workloads []gemstone.WorkloadProfile, tracer *gemstone.Tracer, rss *rssSampler) (screenIter, error) {
	var it screenIter
	rss.start()
	alloc0 := heapAllocs()
	cache := gemstone.NewMemoryRunCache(0)
	sr, secs, err := screenOnce(ctx, hw, v1, workloads, cache, tracer, nil, &it)
	if err != nil {
		return it, err
	}
	it.screen, it.res = secs, sr
	if tracer != nil {
		it.layers = collectBreakdown(treeFromTracer(tracer))
	}
	archives, err := checkScreen(cfg, res, sr)
	if err != nil {
		return it, err
	}

	warmReps, readReps := screenWarmReps, screenReadReps
	if tracer != nil {
		warmReps, readReps = 1, 1
	}
	var scratch screenIter
	// Each warm screen and read starts from a collected heap, so a
	// collection left over from earlier work does not land in it at random.
	for r := 0; r < warmReps; r++ {
		counts := gemstone.NewCollectMetrics()
		runtime.GC()
		warm, secs, err := screenOnce(ctx, hw, v1, workloads, cache, nil, counts, &scratch)
		if err != nil {
			return it, err
		}
		it.warm = append(it.warm, secs)
		for i, rs := range []*gemstone.RunSet{warm.HW, warm.Sim} {
			b, err := archive(rs)
			if err == nil {
				err = checkIdentical(rs.Platform, archives[i], b)
			}
			res.check(cfg, "warm screen replay", err)
		}
		var hitErr error
		if st := counts.Stats(); st.Simulated != 0 {
			hitErr = fmt.Errorf("warm screen simulated %d runs (%d cache hits); want every run replayed", st.Simulated, st.CacheHits)
		}
		res.check(cfg, "warm screen all hits", hitErr)
	}
	for r := 0; r < readReps; r++ {
		var kt kernelTimes
		runtime.GC()
		t0 := time.Now()
		out, err := pairAnalyses(sr.HW, sr.Sim, &kt)
		if err != nil {
			return it, fmt.Errorf("screened analyses: %w", err)
		}
		it.read = append(it.read, time.Since(t0).Seconds())
		if r == 0 {
			it.kernelTimes = kt
			it.allocs = heapAllocs() - alloc0
		}
		b, err := jsonDigestBytes(out)
		if err == nil && !cfg.Smoke {
			err = checkDigest("screen-analyses", b)
		}
		res.check(cfg, "screened analyses digest", err)
	}
	it.peakRSS = rss.take()
	return it, nil
}

func runAtomicScreen(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := newResult()
	rss := startRSSSampler()
	defer rss.close()
	workloads, _ := paperGrid(cfg.Smoke)

	// Set-up: the platforms, and a warm-up screen of one workload so the
	// measured screens start with the simulator's code and heap warm.
	var setups []float64
	var hw, v1 *gemstone.Platform
	for len(setups) < minSetups {
		runtime.GC()
		t0 := time.Now()
		hw, v1 = gemstone.HardwarePlatform(), gemstone.Gem5Platform(gemstone.V1)
		if _, _, err := screenOnce(ctx, hw, v1, workloads[:1], nil, nil, nil, &screenIter{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var iters []screenIter
	n := iterations(cfg.Seconds, screenIterSeconds)
	if cfg.Trace {
		n = 2
	}
	for i := 0; i < n; i++ {
		// A traced run measures one untraced iteration, then one traced.
		var tracer *gemstone.Tracer
		if cfg.Trace && i == 1 {
			tracer = gemstone.NewTracer()
		}
		it, err := screenIteration(ctx, cfg, res, hw, v1, workloads, tracer, rss)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
		cfg.logf("atomic-screen: iteration %d: screen %.3fs (atomic %.3fs, resim %.3fs, %d flagged) warm %.3fs read %.3fs",
			i, it.screen, it.atomic, it.resim, len(it.res.Flagged), median(it.warm), median(it.read))
	}
	res.Notes["iterations"] = len(iters)
	res.Notes["setup_samples_s"] = setups

	if !cfg.Trace {
		var screen, warm, read, alloc []float64
		for _, it := range iters {
			screen = append(screen, it.screen)
			warm = append(warm, it.warm...)
			read = append(read, it.read...)
			alloc = append(alloc, it.allocs)
		}
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["cold_p50_ms"] = 1e3 * median(screen)
		res.Metrics["warm_p50_ms"] = 1e3 * median(warm)
		res.Metrics["read_p50_ms"] = 1e3 * median(read)
		res.Metrics["heap_allocs"] = median(alloc)
		res.Notes["screen_samples_s"] = screen
		res.Notes["warm_samples_s"] = warm
		res.Notes["read_samples_s"] = read
		return res, nil
	}

	plain, tr := iters[0], iters[1]
	atomicGap, screenGap, err := mapeGaps(tr.res)
	if err != nil {
		return nil, err
	}
	l := tr.layers
	m := res.Metrics
	m["core.plan_s"] = l.Plan
	m["core.simulate_s"] = l.Simulate
	m["core.worker_busy_share"] = l.Busy / l.Budget
	m["core.worker_idle_s"] = l.Budget - l.Busy
	m["core.sweep_splits"] = float64(l.SweepSplits)
	m["core.workload_switches"] = float64(l.Switches)
	m["core.cache_get_s"] = l.CacheGet
	m["core.cache_put_s"] = l.CachePut
	m["core.cache_hit_share"] = float64(l.Hits) / float64(max(l.Gets, 1))
	m["core.validate_s"] = tr.validate
	m["core.screen_flagged"] = float64(len(tr.res.Flagged))
	m["core.screen_atomic_s"] = tr.atomic
	m["core.screen_resim_s"] = tr.resim
	m["workload.expand_s"] = l.Expand
	m["pipeline.s"] = l.Pipeline
	m["pipeline.ooo_mips"] = mips(l.InstsByCluster[gemstone.ClusterA15], l.PipeByCluster[gemstone.ClusterA15])
	m["pipeline.inorder_mips"] = mips(l.InstsByCluster[gemstone.ClusterA7], l.PipeByCluster[gemstone.ClusterA7])
	m["mem.record_run_ms"] = meanMS(l.RecordPipe, l.RecordRuns)
	m["mem.replay_run_ms"] = meanMS(l.ReplayPipe, l.ReplayRuns)
	m["pmu.collate_s"] = l.Collate
	// What the screen spends outside its campaigns: percent errors,
	// flagging and merging.
	m["core.account_gap_s"] = tr.screen - l.CollectWall
	m["platform.anchor_s"] = l.Anchor
	m["platform.predict_s"] = l.Predict
	m["platform.power_s"] = l.Power
	m["platform.atomic_mape_gap_pp"] = atomicGap
	m["platform.screen_mape_gap_pp"] = screenGap
	m["stats.hca_s"] = tr.hca
	m["stats.corr_s"] = tr.corr
	m["stats.stepwise_s"] = tr.stepwise
	m["host.peak_rss_mb"] = plain.peakRSS
	m["obs.trace_overhead_pct"] = 100 * (tr.screen - plain.screen) / plain.screen
	return res, nil
}

// checkScreen checks a screen's outputs: the merged run sets' archives
// and the flagged count are pinned, since both tiers are deterministic.
// It returns the archives.
func checkScreen(cfg runConfig, res *result, sr *gemstone.ScreenResult) ([][]byte, error) {
	var archives [][]byte
	for _, set := range []struct {
		name string
		rs   *gemstone.RunSet
	}{{"screen-hw", sr.HW}, {"screen-sim", sr.Sim}} {
		b, err := archive(set.rs)
		if err != nil {
			return nil, err
		}
		archives = append(archives, b)
		if !cfg.Smoke {
			res.check(cfg, set.name+" digest", checkDigest(set.name, b))
		}
	}
	if !cfg.Smoke {
		var err error
		if len(sr.Flagged) != screenFlagged {
			err = fmt.Errorf("screen flagged %d points, want %d", len(sr.Flagged), screenFlagged)
		}
		res.check(cfg, "screen flagged", err)
	}
	return archives, nil
}

// mapeGaps returns the accuracy of the fast tier against the detailed
// tier's golden Table-1 MAPE, averaged over clusters, in percentage
// points: first for the atomic screening pass alone (its per-point
// percent errors), then for the merged screened run sets.
func mapeGaps(sr *gemstone.ScreenResult) (atomicGap, screenGap float64, err error) {
	clusters := []string{gemstone.ClusterA15, gemstone.ClusterA7}
	for _, cl := range clusters {
		var keys []gemstone.RunKey
		for k := range sr.ScreenedPE {
			if k.Cluster == cl {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return 0, 0, fmt.Errorf("screen has no points on %s", cl)
		}
		// Sum in a fixed order so the figure is bit-for-bit repeatable.
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].FreqMHz != keys[j].FreqMHz {
				return keys[i].FreqMHz < keys[j].FreqMHz
			}
			return keys[i].Workload < keys[j].Workload
		})
		var sum float64
		for _, k := range keys {
			sum += math.Abs(sr.ScreenedPE[k])
		}
		atomicGap += math.Abs(sum/float64(len(keys)) - detailedMAPE[cl])

		vs, err := gemstone.Validate(sr.HW, sr.Sim, cl)
		if err != nil {
			return 0, 0, err
		}
		screenGap += math.Abs(vs.MAPE - detailedMAPE[cl])
	}
	n := float64(len(clusters))
	return atomicGap / n, screenGap / n, nil
}
