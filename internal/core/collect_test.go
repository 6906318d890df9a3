package core

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// smallCampaign returns a reduced but multi-suite campaign used by the
// engine tests: 8 validation workloads, one cluster, one frequency.
func smallCampaign() CollectOptions {
	return CollectOptions{
		Workloads: workload.Validation()[:8],
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
	}
}

// archiveBytes serialises rs through the canonical gob envelope.
func archiveBytes(t *testing.T, rs *RunSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveRunSet(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectDeterministicAcrossWorkerCounts pins the doc-comment claim
// of Collect: a GOMAXPROCS-parallel campaign is byte-identical (via the
// canonical archive encoding) to a sequential one.
func TestCollectDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping four-campaign determinism sweep in -short mode")
	}
	pl := hw.Platform()
	// One shape per scheduling unit: 8 workloads schedule whole
	// workloads, one workload on two clusters schedules sweeps, one sweep
	// schedules points.
	shapes := map[string]func() CollectOptions{
		"workloads": smallCampaign,
		"sweeps":    oneWorkloadTwoClusters,
		"points":    oneSweep,
	}
	for name, shape := range shapes {
		opt := shape()
		opt.Workers = 1
		sequential, err := Collect(context.Background(), pl, opt)
		if err != nil {
			t.Fatal(err)
		}
		seqBytes := archiveBytes(t, sequential)

		for _, workers := range []int{0, 2, 7} {
			opt := shape()
			opt.Workers = workers
			parallel, err := Collect(context.Background(), pl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seqBytes, archiveBytes(t, parallel)) {
				t.Fatalf("%s: collection with %d workers diverged from sequential collection", name, workers)
			}
		}
	}
}

// oneWorkloadTwoClusters is a one-workload campaign of two
// (workload, cluster) sweeps, two points each.
func oneWorkloadTwoClusters() CollectOptions {
	return CollectOptions{
		Workloads: workload.Validation()[:1],
		Clusters:  []string{hw.ClusterA7, hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA7: {600, 1000}, hw.ClusterA15: {600, 1000}},
	}
}

// oneSweep is a campaign of a single (workload, cluster) sweep of four
// points.
func oneSweep() CollectOptions {
	return CollectOptions{
		Workloads: workload.Validation()[:1],
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {600, 1000, 1400, 1800}},
	}
}

// TestUnitBounds pins the unit rule on planned job lists.
func TestUnitBounds(t *testing.T) {
	pl := hw.Platform()
	cases := []struct {
		name    string
		opt     CollectOptions
		workers int
		want    []int
	}{
		// 8 workloads x 1 point: a workload per unit from 1 to 8 workers.
		{"workloads", smallCampaign(), 8, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		// 1 workload x 2 clusters x 2 points.
		{"whole workload", oneWorkloadTwoClusters(), 1, []int{0, 4}},
		{"sweeps", oneWorkloadTwoClusters(), 2, []int{0, 2, 4}},
		{"points", oneWorkloadTwoClusters(), 3, []int{0, 1, 2, 3, 4}},
		{"one sweep", oneSweep(), 2, []int{0, 1, 2, 3, 4}},
	}
	for _, c := range cases {
		jobs, err := PlanCampaign(pl, &c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := unitBounds(jobs, c.workers); !slices.Equal(got, c.want) {
			t.Errorf("%s, %d workers: bounds %v, want %v", c.name, c.workers, got, c.want)
		}
	}
}

// rendezvous holds the campaign's first simulation until a second one
// starts, so a test observes both workers simulating whenever the
// schedule gives the second worker any work. It gives up after a
// timeout, leaving the lane assertions to fail.
type rendezvous struct {
	*Metrics
	calls   atomic.Int32
	arrived chan struct{}
}

func newRendezvous() *rendezvous {
	return &rendezvous{Metrics: NewMetrics(), arrived: make(chan struct{})}
}

func (r *rendezvous) RunStart(RunKey) {
	switch r.calls.Add(1) {
	case 1:
		select {
		case <-r.arrived:
		case <-time.After(10 * time.Second):
		}
	case 2:
		close(r.arrived)
	}
}

// assertUnitLanes collects opt with two workers under a tracer, checks
// that the runs of every group (as named by group) were simulated on a
// single worker lane, and returns the number of distinct lanes used.
func assertUnitLanes(t *testing.T, opt CollectOptions, group func(RunKey) string) int {
	t.Helper()
	pl := gem5.Platform(gem5.V1)
	jobs, err := PlanCampaign(pl, &opt)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]RunKey{}
	for _, j := range jobs {
		keys[j.Key.String()] = j.Key
	}
	tr := obs.NewTracer()
	opt.Tracer = tr
	opt.Workers = 2
	if _, err := Collect(context.Background(), pl, opt); err != nil {
		t.Fatal(err)
	}
	groupLane := map[string]int{}
	used := map[int]bool{}
	simulated := 0
	for _, ev := range tr.Events() {
		for _, a := range ev.Attrs {
			if ev.Name != "simulate" || a.Key != "key" {
				continue
			}
			simulated++
			g := group(keys[a.Value.(string)])
			if prev, seen := groupLane[g]; seen && prev != ev.Lane {
				t.Errorf("%s split across lanes %d and %d", g, prev, ev.Lane)
			}
			groupLane[g] = ev.Lane
			used[ev.Lane] = true
		}
	}
	if simulated != len(jobs) {
		t.Fatalf("%d simulate spans for %d jobs", simulated, len(jobs))
	}
	return len(used)
}

// TestCollectUnitAffinity pins Collect's scheduling rule through the
// trace: a worker claims the largest unit that still gives every worker
// work.
func TestCollectUnitAffinity(t *testing.T) {
	t.Run("workload per worker", func(t *testing.T) {
		opt := oneWorkloadTwoClusters()
		opt.Workloads = workload.Validation()[:3]
		assertUnitLanes(t, opt, func(k RunKey) string { return k.Workload })
	})
	t.Run("sweep per worker", func(t *testing.T) {
		opt := oneWorkloadTwoClusters()
		opt.Observer = newRendezvous()
		sweep := func(k RunKey) string { return k.Workload + "/" + k.Cluster }
		if n := assertUnitLanes(t, opt, sweep); n != 2 {
			t.Errorf("two sweeps ran on %d lanes, want 2", n)
		}
	})
	t.Run("point per worker", func(t *testing.T) {
		opt := oneSweep()
		opt.Observer = newRendezvous()
		if n := assertUnitLanes(t, opt, RunKey.String); n != 2 {
			t.Errorf("a four-point sweep ran on %d lanes, want 2", n)
		}
	})
}

// failingProfile passes campaign planning but fails platform validation
// at run time, injecting a deterministic mid-campaign failure.
func failingProfile() workload.Profile {
	p := workload.Validation()[0]
	p.Name = "injected-failure"
	p.TotalInsts = 0 // rejected by Profile.Validate inside Platform.Run
	return p
}

// TestCollectStopsRemainingJobsAfterFirstError is the regression test for
// the original error-path bug: a failing run used to stop only its own
// worker while every other worker kept simulating jobs whose results were
// then thrown away. Now the first failure cancels the outstanding work.
func TestCollectStopsRemainingJobsAfterFirstError(t *testing.T) {
	profiles := append([]workload.Profile{failingProfile()}, workload.Validation()...)
	metrics := NewMetrics()
	_, err := Collect(context.Background(), hw.Platform(), CollectOptions{
		Workloads: profiles,
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
		Workers:   2,
		Observer:  metrics,
	})
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Failed) == 0 || ce.Failed[0].Key.Workload != "injected-failure" {
		t.Fatalf("first failure not attributed to the injected workload: %+v", ce.Failed)
	}
	stats := metrics.Stats()
	total := len(profiles)
	started := stats.Simulated + stats.Errors
	// The failing job is first in line and errors within microseconds;
	// with 2 workers only the jobs already in flight may still finish.
	// The generous bound stays far below the 45 jobs the old engine would
	// have burned through.
	if started > 6 {
		t.Fatalf("%d of %d jobs were started after the first failure; outstanding work not cancelled", started, total)
	}
	if len(ce.Skipped) < total-6 {
		t.Fatalf("only %d jobs reported skipped, want >= %d", len(ce.Skipped), total-6)
	}
	if len(ce.Skipped)+len(ce.Failed)+len(ce.Partial.Runs) != total {
		t.Fatalf("skipped %d + failed %d + done %d != %d jobs",
			len(ce.Skipped), len(ce.Failed), len(ce.Partial.Runs), total)
	}
}

// TestCollectFailFastInsideUnit injects a failure at the second point of
// every workload's sweep: the worker that hits it abandons the rest of
// its unit, and every job is accounted done, failed or skipped.
func TestCollectFailFastInsideUnit(t *testing.T) {
	const noSuchFreq = 1234 // no DVFS point: fails at run time
	for _, workers := range []int{1, 2} {
		_, err := Collect(context.Background(), gem5.Platform(gem5.V1), CollectOptions{
			Workloads: workload.Validation()[:3],
			Clusters:  []string{hw.ClusterA15},
			Freqs:     map[string][]int{hw.ClusterA15: {1000, noSuchFreq, 1400}},
			Workers:   workers,
		})
		var ce *CollectError
		if !errors.As(err, &ce) {
			t.Fatalf("%d workers: want *CollectError, got %v", workers, err)
		}
		if got := len(ce.Skipped) + len(ce.Failed) + len(ce.Partial.Runs); got != 9 {
			t.Fatalf("%d workers: skipped %d + failed %d + done %d != 9 jobs",
				workers, len(ce.Skipped), len(ce.Failed), len(ce.Partial.Runs))
		}
		skipped := map[RunKey]bool{}
		for _, k := range ce.Skipped {
			skipped[k] = true
		}
		for _, f := range ce.Failed {
			if f.Key.FreqMHz != noSuchFreq {
				t.Fatalf("%d workers: unexpected failure %v", workers, f)
			}
			rest := RunKey{Workload: f.Key.Workload, Cluster: hw.ClusterA15, FreqMHz: 1400}
			if !skipped[rest] {
				t.Errorf("%d workers: %s, after the failure in its unit, was not skipped", workers, rest)
			}
		}
		if workers == 1 && (len(ce.Partial.Runs) != 1 || len(ce.Failed) != 1) {
			t.Errorf("1 worker: %d done, %d failed; want 1 and 1", len(ce.Partial.Runs), len(ce.Failed))
		}
	}

	// The other worker stops inside its own unit too: its first run is
	// held until the failure has been reported, and it must then abandon
	// the rest of its sweep.
	hold := &holdUntilError{Metrics: NewMetrics(), failed: make(chan struct{})}
	_, err := Collect(context.Background(), gem5.Platform(gem5.V1), CollectOptions{
		Workloads: append([]workload.Profile{failingProfile()}, workload.Validation()[:1]...),
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {600, 1000, 1400, 1800}},
		Workers:   2,
		Observer:  hold,
	})
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Failed) != 1 || len(ce.Partial.Runs) > 1 || len(ce.Skipped)+1+len(ce.Partial.Runs) != 8 {
		t.Fatalf("%d done, %d failed, %d skipped of 8: the healthy unit did not stop after the failure",
			len(ce.Partial.Runs), len(ce.Failed), len(ce.Skipped))
	}
}

// holdUntilError holds every completed run until a run has failed.
type holdUntilError struct {
	*Metrics
	once   sync.Once
	failed chan struct{}
}

func (h *holdUntilError) RunError(RunKey, error) { h.once.Do(func() { close(h.failed) }) }

func (h *holdUntilError) RunDone(RunKey, platform.Measurement, time.Duration) {
	select {
	case <-h.failed:
	case <-time.After(10 * time.Second):
	}
}

// TestCollectCancellation asserts a pre-cancelled context stops the
// campaign before any job runs and surfaces context.Canceled.
func TestCollectCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	metrics := NewMetrics()
	opt := smallCampaign()
	opt.Observer = metrics
	_, err := Collect(ctx, hw.Platform(), opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the error chain, got %v", err)
	}
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Partial.Runs) != 0 || len(ce.Failed) != 0 {
		t.Fatalf("pre-cancelled campaign ran anyway: %v", ce)
	}
	if len(ce.Skipped) != 8 {
		t.Fatalf("want all 8 jobs skipped, got %d", len(ce.Skipped))
	}
	if got := metrics.Stats().Skipped; got != 8 {
		t.Fatalf("observer saw %d skipped, want 8", got)
	}
}

// TestCollectWarmCacheIdenticalToUncached is the cache-correctness half
// of the acceptance criteria: a warm-cache campaign must reproduce the
// uncached campaign byte-for-byte, while skipping every simulation.
func TestCollectWarmCacheIdenticalToUncached(t *testing.T) {
	pl := gem5.Platform(gem5.V1)
	uncached, err := Collect(context.Background(), pl, smallCampaign())
	if err != nil {
		t.Fatal(err)
	}

	cache := NewMemoryCache(0)
	cold := smallCampaign()
	cold.Cache = cache
	coldMetrics := NewMetrics()
	cold.Observer = coldMetrics
	coldRuns, err := Collect(context.Background(), pl, cold)
	if err != nil {
		t.Fatal(err)
	}
	if s := coldMetrics.Stats(); s.CacheHits != 0 || s.Simulated != 8 {
		t.Fatalf("cold campaign: %v", s)
	}

	warm := smallCampaign()
	warm.Cache = cache
	warmMetrics := NewMetrics()
	warm.Observer = warmMetrics
	warmRuns, err := Collect(context.Background(), pl, warm)
	if err != nil {
		t.Fatal(err)
	}
	if s := warmMetrics.Stats(); s.CacheHits != 8 || s.Simulated != 0 {
		t.Fatalf("warm campaign simulated: %v", s)
	}

	want := archiveBytes(t, uncached)
	if !bytes.Equal(want, archiveBytes(t, coldRuns)) {
		t.Fatal("cold cached campaign diverged from uncached campaign")
	}
	if !bytes.Equal(want, archiveBytes(t, warmRuns)) {
		t.Fatal("warm cached campaign diverged from uncached campaign")
	}
}

// TestCollectResumeAfterFailure exercises the resume story: a campaign
// that fails midway leaves its completed runs in the cache, and re-running
// without the poisoned workload replays them as hits.
func TestCollectResumeAfterFailure(t *testing.T) {
	pl := hw.Platform()
	cache := NewMemoryCache(0)
	good := workload.Validation()[:6]
	// The failing job goes last so (with one worker) every good run
	// completes and is archived before the campaign dies.
	profiles := append(append([]workload.Profile{}, good...), failingProfile())
	_, err := Collect(context.Background(), pl, CollectOptions{
		Workloads: profiles,
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
		Workers:   1,
		Cache:     cache,
	})
	var ce *CollectError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CollectError, got %v", err)
	}
	if len(ce.Partial.Runs) != 6 {
		t.Fatalf("partial results lost: %d of 6 preserved", len(ce.Partial.Runs))
	}

	metrics := NewMetrics()
	resumed, err := Collect(context.Background(), pl, CollectOptions{
		Workloads: good,
		Clusters:  []string{hw.ClusterA15},
		Freqs:     map[string][]int{hw.ClusterA15: {1000}},
		Cache:     cache,
		Observer:  metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stats(); s.CacheHits != 6 || s.Simulated != 0 {
		t.Fatalf("resume re-simulated instead of replaying: %v", s)
	}
	if len(resumed.Runs) != 6 {
		t.Fatalf("resumed campaign has %d runs, want 6", len(resumed.Runs))
	}
}
