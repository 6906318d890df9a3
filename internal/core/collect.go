// Package core implements GemStone itself: the experiment orchestration of
// Fig. 1 (hardware characterisation, gem5 simulation, power
// characterisation), the data collation, and every analysis of Sections
// IV-VII — workload/event clustering, error correlation, error regression,
// matched-event comparison, power/energy error analysis, DVFS-scaling
// analysis and model-version comparison.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/gem5"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/power"
	"gemstone/internal/workload"
)

// RunKey identifies one (workload, cluster, frequency) measurement.
type RunKey struct {
	Workload string
	Cluster  string
	FreqMHz  int
}

// String renders the key as workload/cluster@freq.
func (k RunKey) String() string {
	return fmt.Sprintf("%s/%s@%dMHz", k.Workload, k.Cluster, k.FreqMHz)
}

// compareRunKeys orders run keys by workload, then cluster, then
// frequency — the canonical order of archives and of every float
// aggregation over a run set.
func compareRunKeys(a, b RunKey) int {
	return cmp.Or(cmp.Compare(a.Workload, b.Workload),
		cmp.Compare(a.Cluster, b.Cluster), cmp.Compare(a.FreqMHz, b.FreqMHz))
}

// RunSet holds every measurement collected from one platform.
type RunSet struct {
	Platform string
	Runs     map[RunKey]platform.Measurement
}

// Get returns the measurement for key, or an error naming what's missing.
func (rs *RunSet) Get(key RunKey) (platform.Measurement, error) {
	m, ok := rs.Runs[key]
	if !ok {
		return platform.Measurement{}, fmt.Errorf("core: %s has no run for %s/%s@%dMHz",
			rs.Platform, key.Workload, key.Cluster, key.FreqMHz)
	}
	return m, nil
}

// sortedKeys returns the set's run keys in compareRunKeys order. Analyses
// that sum floats iterate this instead of the map, so repeated calls agree
// to the last bit.
func (rs *RunSet) sortedKeys() []RunKey {
	keys := make([]RunKey, 0, len(rs.Runs))
	for k := range rs.Runs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareRunKeys)
	return keys
}

// Workloads returns the sorted workload names present in the set.
func (rs *RunSet) Workloads() []string {
	seen := map[string]bool{}
	for k := range rs.Runs {
		seen[k.Workload] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CollectOptions scopes an experiment campaign.
type CollectOptions struct {
	// Name labels the campaign for distributed execution and service
	// ledgers. Local collection ignores it; the distributed coordinator
	// auto-names anonymous campaigns.
	Name string
	// Workloads to run; nil means the validation set.
	Workloads []workload.Profile
	// Clusters to run on; nil means both.
	Clusters []string
	// Freqs per cluster; nil means the paper's Experiment-1 frequencies.
	Freqs map[string][]int
	// Fidelity selects the simulation tier for every run of the campaign.
	// The zero value is the detailed (bit-for-bit pinned) tier;
	// FidelityAtomic predicts runs from truncated anchor simulations at a
	// documented error bound. Atomic and detailed runs are cached and
	// job-addressed under distinct keys, so tiers never alias.
	Fidelity platform.Fidelity

	// Workers bounds the campaign's parallelism; 0 means GOMAXPROCS.
	// Every run is individually deterministic, so the worker count never
	// changes the collected data — only the wall time.
	Workers int
	// Cache, when non-nil, memoises runs under content-addressed keys
	// (see CacheKeyFidelity): a hit replays the archived measurement
	// instead of simulating. Warm-cache campaigns cost cache lookups only.
	Cache RunCache
	// Observer, when non-nil, receives per-run lifecycle callbacks and
	// the campaign's aggregate statistics.
	Observer CollectObserver
	// Tracer, when non-nil, records the campaign's phases as spans:
	// "collect" (the whole campaign) with a "plan" child, one root per
	// worker, and per-job "cache-get"/"simulate"/"cache-put" children.
	// The simulate span is passed into platform.RunSpan, so the
	// simulator's internal phases nest under it. Export the result with
	// Tracer.WriteChromeTrace.
	Tracer *obs.Tracer
	// Trace is the campaign's correlation identity (campaign ID, tenant)
	// for distributed execution: a coordinator stamps it — plus the job
	// ID and a Record flag derived from Tracer — onto every remote job so
	// worker log lines and returned spans attribute to the right tenant
	// campaign. Local collection ignores it; the zero value is anonymous.
	Trace obs.TraceContext
}

func (o *CollectOptions) fill(pl *platform.Platform) error {
	if !o.Fidelity.Valid() {
		return fmt.Errorf("core: invalid campaign fidelity %d", o.Fidelity)
	}
	if len(o.Workloads) == 0 {
		o.Workloads = workload.Validation()
	}
	if len(o.Clusters) == 0 {
		for _, cl := range pl.Config().Clusters {
			o.Clusters = append(o.Clusters, cl.Name)
		}
	}
	if o.Freqs == nil {
		o.Freqs = map[string][]int{}
	}
	for _, cl := range o.Clusters {
		if len(o.Freqs[cl]) == 0 {
			cc, err := pl.Cluster(cl)
			if err != nil {
				return err
			}
			var fs []int
			for _, f := range cc.Frequencies() {
				if cl == "a15" && f >= 2000 {
					continue // the paper excludes 2 GHz (thermal throttling)
				}
				fs = append(fs, f)
			}
			o.Freqs[cl] = fs
		}
	}
	return nil
}

// RunError is one failed run of a campaign.
type RunError struct {
	Key RunKey
	Err error
}

// Error implements error.
func (e RunError) Error() string { return fmt.Sprintf("%s: %v", e.Key, e.Err) }

// Unwrap exposes the underlying platform error.
func (e RunError) Unwrap() error { return e.Err }

// CollectError reports a campaign that did not complete: a run failed, or
// the context was cancelled. It preserves everything the campaign did
// finish so the caller can analyse or resume it — re-collecting with the
// same cache replays completed runs as hits and only re-simulates the
// failed and skipped jobs.
type CollectError struct {
	// Platform names the collected platform.
	Platform string
	// Failed lists the runs that errored; the first entry is the failure
	// that cancelled the campaign, later entries (if any) were already in
	// flight when it happened.
	Failed []RunError
	// Skipped lists jobs abandoned without being attempted.
	Skipped []RunKey
	// Cause carries the context's cancellation cause (context.Cause) when
	// cancellation rather than a run failure ended the campaign:
	// context.Canceled, context.DeadlineExceeded, or whatever error the
	// caller handed to its CancelCauseFunc. It participates in Unwrap, so
	// errors.Is(err, context.DeadlineExceeded) just works.
	Cause error
	// Partial holds every completed measurement.
	Partial *RunSet
}

// Error implements error.
func (e *CollectError) Error() string {
	done := 0
	if e.Partial != nil {
		done = len(e.Partial.Runs)
	}
	msg := fmt.Sprintf("core: campaign on %s incomplete: %d done, %d failed, %d skipped",
		e.Platform, done, len(e.Failed), len(e.Skipped))
	if len(e.Failed) > 0 {
		msg += fmt.Sprintf("; first failure: %v", e.Failed[0])
	}
	if e.Cause != nil {
		msg += fmt.Sprintf("; cancelled: %v", e.Cause)
	}
	return msg
}

// Unwrap exposes the run failures and the cancellation cause to
// errors.Is/errors.As.
func (e *CollectError) Unwrap() []error {
	errs := make([]error, 0, len(e.Failed)+1)
	for _, f := range e.Failed {
		errs = append(errs, f)
	}
	if e.Cause != nil {
		errs = append(errs, e.Cause)
	}
	return errs
}

// PlannedJob is one run of a campaign: the workload profile to run, the
// run key naming the (workload, cluster, frequency) point, and the
// content-addressed cache key of the measurement. The distributed
// coordinator (internal/dist) ships PlannedJobs to remote workers under
// that key as their job ID; Collect feeds them to its local lanes. Either
// way the job list is identical, which is what makes a distributed
// campaign bit-for-bit equivalent to a local one.
type PlannedJob struct {
	Profile workload.Profile
	Key     RunKey
	// CacheKey is the content-addressed run-cache key (CacheKeyFidelity
	// of the job), filled whether or not the campaign has a cache.
	CacheKey string
}

// PlanCampaign fills opt's defaults against pl and expands it into the
// campaign's ordered job list: workload, then cluster, then frequency.
// CollectLanes schedules contiguous runs of this list as units (see
// unitBounds). The ordering never changes the collected data — runs are
// independent and individually deterministic.
func PlanCampaign(pl *platform.Platform, opt *CollectOptions) ([]PlannedJob, error) {
	if err := opt.fill(pl); err != nil {
		return nil, err
	}
	cfg := pl.Config()
	// Fingerprint each cluster once so per-run cache keys are a hash away.
	clusterFP := map[string]string{}
	for _, cl := range opt.Clusters {
		cc, err := pl.Cluster(cl)
		if err != nil {
			return nil, err
		}
		clusterFP[cl] = cc.Fingerprint()
	}
	var jobs []PlannedJob
	for _, prof := range opt.Workloads {
		profJSON := profileKeyJSON(prof)
		for _, cl := range opt.Clusters {
			for _, f := range opt.Freqs[cl] {
				jobs = append(jobs, PlannedJob{
					Profile:  prof,
					Key:      RunKey{Workload: prof.Name, Cluster: cl, FreqMHz: f},
					CacheKey: cacheKeyFromParts(cfg.Name, cfg.HasSensors, cl, clusterFP[cl], profJSON, f, opt.Fidelity),
				})
			}
		}
	}
	return jobs, nil
}

// unitBounds splits a PlanCampaign job list into CollectLanes' scheduling
// units and returns their boundaries: unit u is jobs[b[u]:b[u+1]]. One
// lane runs a unit start to end — locally on one SimContext, whose
// reusable state is keyed by what consecutive jobs share: the expanded
// instruction stream by workload, each cluster's DVFS trace and atomic
// anchors by (workload, cluster). So the rule is: the unit is the largest
// that still gives every lane work — the whole workload; the (workload,
// cluster) sweep when there are fewer workloads than lanes; the single
// point when there are fewer sweeps too.
func unitBounds(jobs []PlannedJob, workers int) []int {
	sameUnit := []func(a, b RunKey) bool{
		func(a, b RunKey) bool { return a.Workload == b.Workload },
		func(a, b RunKey) bool { return a.Workload == b.Workload && a.Cluster == b.Cluster },
	}
	for _, same := range sameUnit {
		b := []int{0}
		for i := 1; i < len(jobs); i++ {
			if !same(jobs[i-1].Key, jobs[i].Key) {
				b = append(b, i)
			}
		}
		b = append(b, len(jobs))
		if len(b)-1 >= workers {
			return b
		}
	}
	b := make([]int, len(jobs)+1)
	for i := range b {
		b[i] = i
	}
	return b
}

// Collect runs the campaign described by opt on pl and returns the run
// set. It reproduces Experiment 1 (and, on sensored platforms, 3 and 4 —
// the power data rides along with the PMU samples) or Experiment 2 when
// pl is a gem5 model, at the simulation tier selected by opt.Fidelity.
//
// Runs are independent simulations, so the campaign fans out across
// opt.Workers lanes (GOMAXPROCS by default), each simulating on its own
// SimContext (see LocalLanes and CollectLanes). Every run is individually
// deterministic, so the resulting set is identical to a sequential
// collection (TestCollectDeterministicAcrossWorkerCounts asserts this
// byte-for-byte).
//
// The campaign stops early on the first run failure or when ctx is
// cancelled: lanes finish the runs already in flight and then abandon the
// remaining jobs, including the rest of their own unit, instead of
// burning CPU on a doomed campaign. In both cases the returned error is a
// *CollectError carrying the completed partial results, the failed runs
// and the skipped jobs.
func Collect(ctx context.Context, pl *platform.Platform, opt CollectOptions) (*RunSet, error) {
	root := opt.Tracer.Start("collect", obs.String("platform", pl.Name()))
	defer root.End()
	lanes := opt.Workers
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	rs, _, err := CollectLanes(ctx, pl, opt, root, lanes, LocalLanes(pl, opt.Fidelity, lanes))
	return rs, err
}

// LaneFunc runs one job that missed the cache on lane, one of the lane
// count handed to CollectLanes. Calls on one lane never overlap, so
// per-lane state needs no lock. ctx is done once the campaign stops — a
// run failed or the caller cancelled — and a LaneFunc that abandons its
// job for that reason returns ctx.Err(): the job is then reported
// skipped, not failed. sp is the lane's trace span (nil when untraced),
// under which the LaneFunc opens its own phases. simTime is what the
// observer's RunDone and CollectStats.SimTime report for the job.
type LaneFunc func(ctx context.Context, lane int, j PlannedJob, sp *obs.Span) (m platform.Measurement, simTime time.Duration, err error)

// LocalLanes returns the LaneFunc that simulates jobs in-process at
// fidelity fid, with one SimContext per lane (lanes of them). A lane's
// hierarchies, predictors, core scratch and expanded streams are reused
// across its jobs (Reset between runs), which removes nearly all per-run
// allocation from a campaign; each is built on its lane's first miss, so
// a warm campaign builds none.
func LocalLanes(pl *platform.Platform, fid platform.Fidelity, lanes int) LaneFunc {
	sims := make([]*platform.SimContext, lanes)
	return func(_ context.Context, lane int, j PlannedJob, sp *obs.Span) (platform.Measurement, time.Duration, error) {
		if sims[lane] == nil {
			sims[lane] = platform.NewSimContext(pl)
		}
		// Span attributes are built only when tracing: evaluating them
		// unconditionally would pay a key-format and boxing allocation per
		// job even on untraced campaigns.
		var ss *obs.Span
		if sp != nil {
			ss = sp.Child("simulate", obs.String("key", j.Key.String()))
		}
		t0 := time.Now()
		m, err := sims[lane].RunFidelity(j.Profile, j.Key.Cluster, j.Key.FreqMHz, fid, ss)
		elapsed := time.Since(t0)
		ss.End()
		return m, elapsed, err
	}
}

// CollectLanes is the one campaign driver, behind Collect and the
// distributed coordinator alike. It plans opt on pl under root (the
// campaign's "collect" span, which the caller opens and ends), replays
// cache hits, and hands every miss to run on up to lanes parallel lanes.
// Lanes claim whole units of jobs — a workload, a (workload, cluster)
// sweep or a single point, as unitBounds decides — so whatever a lane
// reuses between consecutive jobs is built once per unit. Everything but
// the cache-miss step is shared: observer lifecycle, cache use, fail-fast
// and cancellation, the skipped list, CollectStats and CollectError. The
// returned stats are the ones the observer's CollectDone receives (zero
// when planning failed).
func CollectLanes(ctx context.Context, pl *platform.Platform, opt CollectOptions, root *obs.Span, lanes int, run LaneFunc) (*RunSet, CollectStats, error) {
	start := time.Now()
	planSpan := root.Child("plan")
	jobs, err := PlanCampaign(pl, &opt)
	if err != nil {
		planSpan.End()
		return nil, CollectStats{}, err
	}
	planSpan.Annotate(obs.Int("jobs", len(jobs)))
	planSpan.End()
	root.Annotate(obs.Int("jobs", len(jobs)))
	planTime := time.Since(start)

	observer := opt.Observer
	if observer != nil {
		observer.CollectStart(pl.Name(), len(jobs))
	}

	rs := &RunSet{Platform: pl.Name(), Runs: make(map[RunKey]platform.Measurement, len(jobs))}
	bounds := unitBounds(jobs, lanes)
	units := len(bounds) - 1
	lanes = min(lanes, units)

	// stopCtx is done on the first failure or when ctx is: lanes check it
	// before every job, and a LaneFunc blocked on something else wakes on
	// it.
	stopCtx, stop := context.WithCancel(ctx)
	defer stop()
	var (
		mu     sync.Mutex // guards rs.Runs and failed
		wg     sync.WaitGroup
		next   atomic.Int64
		failed []RunError

		hits, sims     atomic.Int64
		cacheNS, simNS atomic.Int64
	)
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each lane traces on its own row so concurrent runs render
			// side by side in Perfetto.
			ws := opt.Tracer.Start("worker", obs.Int("worker", w))
			defer ws.End()
			// next hands out unit indices; [i, end) is the rest of the
			// lane's current unit. Stop is checked before every job, so a
			// stopped campaign abandons units mid-way.
			i, end := 0, 0
			for {
				if stopCtx.Err() != nil {
					return
				}
				for i == end {
					u := int(next.Add(1)) - 1
					if u >= units {
						return
					}
					i, end = bounds[u], bounds[u+1]
				}
				j := jobs[i]
				i++
				if opt.Cache != nil {
					var sp *obs.Span
					if ws != nil {
						sp = ws.Child("cache-get", obs.String("key", j.Key.String()))
					}
					t0 := time.Now()
					m, ok := opt.Cache.Get(j.CacheKey)
					cacheNS.Add(int64(time.Since(t0)))
					if sp != nil {
						sp.Annotate(obs.Bool("hit", ok))
						sp.End()
					}
					if ok {
						hits.Add(1)
						mu.Lock()
						rs.Runs[j.Key] = m
						mu.Unlock()
						if observer != nil {
							observer.CacheHit(j.Key)
						}
						continue
					}
				}
				if observer != nil {
					observer.RunStart(j.Key)
				}
				m, simTime, err := run(stopCtx, w, j, ws)
				simNS.Add(int64(simTime))
				if err != nil {
					if stopCtx.Err() != nil && errors.Is(err, stopCtx.Err()) {
						return // abandoned: the job is skipped
					}
					err = fmt.Errorf("core: collecting %s on %s: %w", j.Key, pl.Name(), err)
					mu.Lock()
					failed = append(failed, RunError{Key: j.Key, Err: err})
					mu.Unlock()
					stop()
					if observer != nil {
						observer.RunError(j.Key, err)
					}
					return
				}
				sims.Add(1)
				if opt.Cache != nil {
					var sp *obs.Span
					if ws != nil {
						sp = ws.Child("cache-put", obs.String("key", j.Key.String()))
					}
					t0 := time.Now()
					opt.Cache.Put(j.CacheKey, m)
					cacheNS.Add(int64(time.Since(t0)))
					sp.End()
				}
				mu.Lock()
				rs.Runs[j.Key] = m
				mu.Unlock()
				if observer != nil {
					observer.RunDone(j.Key, m, simTime)
				}
			}
		}(w)
	}
	wg.Wait()

	var skipped []RunKey
	if stopCtx.Err() != nil {
		attempted := make(map[RunKey]bool, len(failed))
		for _, f := range failed {
			attempted[f.Key] = true
		}
		for _, j := range jobs {
			if _, done := rs.Runs[j.Key]; !done && !attempted[j.Key] {
				skipped = append(skipped, j.Key)
			}
		}
	}

	stats := CollectStats{
		Platform:  pl.Name(),
		Jobs:      len(jobs),
		Simulated: int(sims.Load()),
		CacheHits: int(hits.Load()),
		Errors:    len(failed),
		Skipped:   len(skipped),
		PlanTime:  planTime,
		CacheTime: time.Duration(cacheNS.Load()),
		SimTime:   time.Duration(simNS.Load()),
		WallTime:  time.Since(start),
	}
	if observer != nil {
		observer.CollectDone(stats)
	}

	if len(failed) > 0 || ctx.Err() != nil {
		return nil, stats, &CollectError{
			Platform: pl.Name(),
			Failed:   failed,
			Skipped:  skipped,
			// context.Cause, not ctx.Err(): a deadline-exceeded or
			// WithCancelCause campaign reports *why* it was cancelled, so
			// errors.Is(err, context.DeadlineExceeded) and custom causes
			// work without string matching.
			Cause:   context.Cause(ctx),
			Partial: rs,
		}
	}
	return rs, stats, nil
}

// Gem5Stats returns the gem5 statistics map of one model run — Experiment
// 2's stats.txt for that run.
func Gem5Stats(m platform.Measurement) map[string]float64 {
	return gem5.Stats(&m.Sample)
}

// PowerObservation converts a sensored measurement into a power-model
// training/validation observation.
func PowerObservation(m platform.Measurement) power.Observation {
	rates := make(map[pmu.Event]float64)
	for _, e := range pmu.AllEvents() {
		rates[e] = m.Sample.Rate(e)
	}
	return power.Observation{
		Workload: m.Workload, Cluster: m.Cluster,
		FreqMHz: m.FreqMHz, VoltageV: m.VoltageV,
		Rates: rates, PowerW: m.PowerWatts,
	}
}
