package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
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
	opt := smallCampaign()
	opt.Workers = 1
	sequential, err := Collect(context.Background(), pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	seqBytes := archiveBytes(t, sequential)

	for _, workers := range []int{0, 2, 7} {
		opt := smallCampaign()
		opt.Workers = workers
		parallel, err := Collect(context.Background(), pl, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqBytes, archiveBytes(t, parallel)) {
			t.Fatalf("collection with %d workers diverged from sequential collection", workers)
		}
	}
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
