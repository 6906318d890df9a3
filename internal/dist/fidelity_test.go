package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/http"
	"testing"

	"gemstone/internal/core"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// TestJobIDFidelitySeparation pins the content-addressing contract for
// tiers: the same operating point at different fidelities must map to
// different job IDs, so a cached or duplicated atomic result can never be
// recorded as a detailed measurement (or vice versa).
func TestJobIDFidelitySeparation(t *testing.T) {
	pl := hw.Platform()
	prof := workload.Validation()[0]
	det, err := core.CacheKeyFidelity(pl, prof, hw.ClusterA15, 1000, platform.FidelityDetailed)
	if err != nil {
		t.Fatal(err)
	}
	atom, err := core.CacheKeyFidelity(pl, prof, hw.ClusterA15, 1000, platform.FidelityAtomic)
	if err != nil {
		t.Fatal(err)
	}
	if det == atom {
		t.Fatalf("detailed and atomic job IDs alias: %s", det)
	}
	// A job from a pre-fidelity coordinator carries the zero tier; its ID
	// must stay the detailed-tier ID.
	legacy, err := core.CacheKeyFidelity(pl, prof, hw.ClusterA15, 1000, platform.Fidelity(0))
	if err != nil {
		t.Fatal(err)
	}
	if legacy != det {
		t.Fatalf("zero-tier job ID %s != detailed-tier ID %s", legacy, det)
	}
}

// TestDistributedAtomicCampaign runs an atomic-tier campaign over a real
// worker and checks the distributed archive is byte-identical to a local
// atomic collection — the worker must dispatch on Job.Fidelity, not
// silently simulate detailed.
func TestDistributedAtomicCampaign(t *testing.T) {
	n := campaignSize(t)
	opt := campaignOpts(n)
	opt.Fidelity = platform.FidelityAtomic
	local, err := core.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range local.Runs {
		if m.Fidelity != platform.FidelityAtomic {
			t.Fatalf("local atomic run %v has fidelity %s", k, m.Fidelity)
		}
	}

	w := startWorker(t, nil)
	coord := NewCoordinator(CoordinatorConfig{Workers: []string{w.URL}})
	dist, err := coord.Collect(context.Background(), hw.Platform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := archiveBytes(t, dist), archiveBytes(t, local); !bytes.Equal(got, want) {
		t.Fatalf("distributed atomic archive differs from local: %d vs %d bytes", len(got), len(want))
	}
	remote := 0
	for _, ws := range coord.WorkerStats() {
		remote += ws.Jobs
	}
	if remote != n {
		t.Fatalf("workers ran %d jobs, want %d", remote, n)
	}
}

// TestWorkerRejectsInvalidFidelity pins the worker-side validation: a job
// carrying an out-of-range tier is terminal (422), never simulated.
func TestWorkerRejectsInvalidFidelity(t *testing.T) {
	srv := startWorker(t, nil)
	pl := hw.Platform()
	spec, ok := SpecFor(pl)
	if !ok {
		t.Fatal("no spec for hw platform")
	}
	job := Job{
		Proto:      ProtoVersion,
		ID:         "bogus-fidelity-job",
		Spec:       spec,
		PlatformFP: pl.Config().Fingerprint(),
		Profile:    workload.Validation()[0],
		Cluster:    hw.ClusterA15,
		FreqMHz:    1000,
		Fidelity:   platform.Fidelity(99),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&job); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+PathRun, contentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid fidelity: status %d, want 422", resp.StatusCode)
	}
}
