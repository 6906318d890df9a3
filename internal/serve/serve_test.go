package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/dist"
	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/ledger"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// testSpec is the small real campaign every service test runs: n
// validation workloads on the big cluster at one frequency, model V1.
func testSpec(n int) *CampaignSpec {
	var names []string
	for _, p := range workload.Validation()[:n] {
		names = append(names, p.Name)
	}
	return &CampaignSpec{
		Gem5Version: 1,
		Cluster:     hw.ClusterA15,
		FreqMHz:     1000,
		FreqsMHz:    []int{1000},
		Workloads:   names,
	}
}

func campaignSize(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 2
	}
	return 3
}

// startWorker serves a fresh gemstoned worker over httptest.
func startWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	h := http.Handler(dist.NewWorker(dist.WorkerConfig{MaxParallel: 2}).Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// archiveBytes renders the canonical RunSet archive.
func archiveBytes(t *testing.T, rs *core.RunSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.SaveRunSet(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localGolden collects the spec locally on both platforms — the byte
// equivalence reference for everything the service serves.
func localGolden(t *testing.T, spec *CampaignSpec) (hwSet, simSet *core.RunSet) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	hwSet, err := core.Collect(context.Background(), hw.Platform(), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	simSet, err = core.Collect(context.Background(), gem5.Platform(gem5.V1), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	return hwSet, simSet
}

// client issues one API request with the tenant header.
func doReq(t *testing.T, method, url, tenant string, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submit POSTs a spec and returns the assigned campaign ID.
func submit(t *testing.T, base, tenant string, spec *CampaignSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp := doReq(t, http.MethodPost, base+"/v1/campaigns", tenant, bytes.NewReader(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("submit: empty campaign id")
	}
	return st.ID
}

// followSSE reads the campaign's event stream to completion and returns
// the decoded events. The server closes the stream after the terminal
// frame, so reading to EOF is the termination contract.
func followSSE(t *testing.T, base, tenant, id string) []Event {
	t.Helper()
	resp := doReq(t, http.MethodGet, base+"/v1/campaigns/"+id+"/events", tenant, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("events: bad frame %q: %v", data, err)
			}
			events = append(events, e)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events: stream error: %v", err)
	}
	return events
}

// fetch GETs a campaign sub-resource and returns status + body.
func fetch(t *testing.T, base, tenant, path string) (int, []byte) {
	t.Helper()
	resp := doReq(t, http.MethodGet, base+path, tenant, nil)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServiceEndToEnd is the acceptance golden test: two concurrent
// campaigns from distinct tenants run through `gemstone serve` over a
// two-worker fleet with one worker killed mid-campaign, and each
// produces gob archives byte-identical to a local Collect of the same
// spec. It runs in -short mode (smaller campaign), so CI's short serve
// step exercises the full path.
func TestServiceEndToEnd(t *testing.T) {
	n := campaignSize(t)
	spec := testSpec(n)
	goldenHW, goldenSim := localGolden(t, spec)

	healthy := startWorker(t, nil)
	// The doomed worker dies after one accepted job: every later request
	// aborts like a crashed process, mid-campaign.
	doomed := startWorker(t, func(h http.Handler) http.Handler {
		return &dist.KillSwitch{Handler: h, After: 1}
	})
	reg := obs.NewRegistry()
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		Workers:  []string{healthy.URL, doomed.URL},
		Registry: reg,
	})
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")
	svc := New(Config{
		Coordinator:    coord,
		Cache:          core.NewMemoryCache(0),
		Ledger:         ledger.Open(ledgerPath),
		Registry:       reg,
		TraceCampaigns: true,
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	tenants := []string{"alice", "bob"}
	ids := make([]string, len(tenants))
	for i, tn := range tenants {
		ids[i] = submit(t, api.URL, tn, testSpec(n))
	}

	// Follow both event streams concurrently — the campaigns overlap on
	// the shared fleet.
	eventsByTenant := make([][]Event, len(tenants))
	var wg sync.WaitGroup
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eventsByTenant[i] = followSSE(t, api.URL, tenants[i], ids[i])
		}(i)
	}
	wg.Wait()

	wantHW, wantSim := archiveBytes(t, goldenHW), archiveBytes(t, goldenSim)
	for i, tn := range tenants {
		events := eventsByTenant[i]
		if len(events) == 0 {
			t.Fatalf("%s: empty event stream", tn)
		}
		last := events[len(events)-1]
		if last.Type != "done" {
			t.Fatalf("%s: stream ended with %q (error=%q), want done", tn, last.Type, last.Error)
		}
		for j, e := range events {
			if e.Seq != j+1 {
				t.Fatalf("%s: event %d has seq %d", tn, j, e.Seq)
			}
		}

		// The acceptance criterion: service archives byte-identical to
		// local Collect.
		status, gotHW := fetch(t, api.URL, tn, "/v1/campaigns/"+ids[i]+"/archive/hw")
		if status != http.StatusOK {
			t.Fatalf("%s: hw archive status %d", tn, status)
		}
		if !bytes.Equal(gotHW, wantHW) {
			t.Errorf("%s: hw archive differs from local collect (%d vs %d bytes)", tn, len(gotHW), len(wantHW))
		}
		status, gotSim := fetch(t, api.URL, tn, "/v1/campaigns/"+ids[i]+"/archive/sim")
		if status != http.StatusOK {
			t.Fatalf("%s: sim archive status %d", tn, status)
		}
		if !bytes.Equal(gotSim, wantSim) {
			t.Errorf("%s: sim archive differs from local collect (%d vs %d bytes)", tn, len(gotSim), len(wantSim))
		}

		// The analysis surface matches a local analysis of the same runs.
		status, body := fetch(t, api.URL, tn, "/v1/campaigns/"+ids[i]+"/validation")
		if status != http.StatusOK {
			t.Fatalf("%s: validation status %d: %s", tn, status, body)
		}
		var vs core.ValidationSummary
		if err := json.Unmarshal(body, &vs); err != nil {
			t.Fatal(err)
		}
		localVS, err := core.Validate(goldenHW, goldenSim, spec.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		if vs.MAPE != localVS.MAPE || vs.MPE != localVS.MPE {
			t.Errorf("%s: served MAPE/MPE %.4f/%.4f, local %.4f/%.4f",
				tn, vs.MAPE, vs.MPE, localVS.MAPE, localVS.MPE)
		}

		status, body = fetch(t, api.URL, tn, "/v1/campaigns/"+ids[i]+"/clusters")
		if status != http.StatusOK {
			t.Fatalf("%s: clusters status %d: %s", tn, status, body)
		}
		var wc core.WorkloadClustering
		if err := json.Unmarshal(body, &wc); err != nil {
			t.Fatal(err)
		}
		if len(wc.Labels) != n {
			t.Errorf("%s: clustering labelled %d workloads, want %d", tn, len(wc.Labels), n)
		}

		// Power models need more observations than a smoke campaign
		// provides; the endpoint must answer cleanly either way.
		if status, _ = fetch(t, api.URL, tn, "/v1/campaigns/"+ids[i]+"/power"); status != http.StatusOK && status != http.StatusUnprocessableEntity {
			t.Errorf("%s: power status %d, want 200 or 422", tn, status)
		}
	}

	t.Run("tenancy", func(t *testing.T) {
		// Cross-tenant reads 404: bob cannot see alice's campaign, and
		// the response is indistinguishable from a missing ID.
		if status, _ := fetch(t, api.URL, "bob", "/v1/campaigns/"+ids[0]); status != http.StatusNotFound {
			t.Fatalf("cross-tenant status %d, want 404", status)
		}
		if status, _ := fetch(t, api.URL, "bob", "/v1/campaigns/"+ids[0]+"/archive/hw"); status != http.StatusNotFound {
			t.Fatalf("cross-tenant archive status %d, want 404", status)
		}
		// Listing is tenant-scoped.
		status, body := fetch(t, api.URL, "alice", "/v1/campaigns")
		if status != http.StatusOK {
			t.Fatalf("list status %d", status)
		}
		var list []json.RawMessage
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list) != 1 {
			t.Fatalf("alice sees %d campaigns, want 1", len(list))
		}
	})

	t.Run("ledger provenance", func(t *testing.T) {
		scan, err := ledger.Open(ledgerPath).Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(scan.Entries) != 2 {
			t.Fatalf("ledger has %d entries, want 2", len(scan.Entries))
		}
		seen := map[string]bool{}
		for _, e := range scan.Entries {
			if e.Manifest.Tenant == "" || e.Manifest.CampaignID == "" {
				t.Fatalf("entry missing tenant/campaign provenance: %+v", e.Manifest)
			}
			seen[e.Manifest.Tenant] = true
		}
		if !seen["alice"] || !seen["bob"] {
			t.Fatalf("ledger tenants %v, want alice and bob", seen)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		snap := reg.Snapshot()
		for _, tn := range tenants {
			key := fmt.Sprintf(`gemstone_serve_campaigns_total{tenant=%q,outcome="done"}`, tn)
			if snap[key] != 1 {
				t.Errorf("%s = %v, want 1", key, snap[key])
			}
		}
		for _, tn := range tenants {
			key := fmt.Sprintf(`gemstone_serve_campaigns_active{tenant=%q}`, tn)
			if snap[key] != 0 {
				t.Errorf("%s = %v after completion", key, snap[key])
			}
		}
		if snap[`gemstone_serve_requests_total{route="/v1/campaigns",method="POST",code="202"}`] < 2 {
			t.Error("HTTP instrumentation missing POST /v1/campaigns samples")
		}
	})

	t.Run("trace", func(t *testing.T) {
		// The terminal campaign serves its merged fleet-wide Chrome trace.
		resp := doReq(t, http.MethodGet, api.URL+"/v1/campaigns/"+ids[0]+"/trace", tenants[0], nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("trace content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// CI uploads the merged trace as a build artifact when the
		// directory is provided.
		if dir := os.Getenv("GEMSTONE_TRACE_ARTIFACT_DIR"); dir != "" {
			if err := os.WriteFile(filepath.Join(dir, "serve-e2e-"+tenants[0]+".json"), raw, 0o644); err != nil {
				t.Errorf("artifact write: %v", err)
			}
		}

		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Ts   float64        `json:"ts"`
				Dur  float64        `json:"dur"`
				Pid  int            `json:"pid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		var rootTs, rootEnd float64
		workerPids := map[int]bool{}
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.Ph == "M" && ev.Name == "process_name":
				if name, _ := ev.Args["name"].(string); strings.HasPrefix(name, "worker ") {
					workerPids[ev.Pid] = true
				}
			case ev.Ph == "X" && ev.Name == "campaign" && ev.Pid == 1:
				rootTs, rootEnd = ev.Ts, ev.Ts+ev.Dur
				if got, _ := ev.Args["campaign"].(string); got != ids[0] {
					t.Errorf("campaign span labelled %q, want %s", got, ids[0])
				}
				if got, _ := ev.Args["tenant"].(string); got != tenants[0] {
					t.Errorf("campaign span tenant %q, want %s", got, tenants[0])
				}
			}
		}
		if rootEnd == 0 {
			t.Fatal("no campaign root span on pid 1")
		}
		if len(workerPids) == 0 {
			t.Fatal("no worker process in the merged trace")
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && workerPids[ev.Pid] {
				if ev.Ts < rootTs-0.01 || ev.Ts+ev.Dur > rootEnd+0.01 {
					t.Errorf("worker span %q [%.1f,%.1f] escapes campaign span [%.1f,%.1f]",
						ev.Name, ev.Ts, ev.Ts+ev.Dur, rootTs, rootEnd)
				}
			}
		}

		// Cross-tenant trace reads 404 like every other sub-resource.
		if status, _ := fetch(t, api.URL, "bob", "/v1/campaigns/"+ids[0]+"/trace"); status != http.StatusNotFound {
			t.Errorf("cross-tenant trace status %d, want 404", status)
		}
	})

	t.Run("statusz", func(t *testing.T) {
		status, body := fetch(t, api.URL, "", "/v1/statusz")
		if status != http.StatusOK {
			t.Fatalf("statusz status %d", status)
		}
		var sz statuszBody
		if err := json.Unmarshal(body, &sz); err != nil {
			t.Fatalf("statusz is not valid JSON: %v", err)
		}
		// The healthy worker is still alive, so the fleet is not degraded.
		if sz.Status != "ok" {
			t.Errorf("statusz status %q, want ok", sz.Status)
		}
		if sz.Campaigns.Active != 0 {
			t.Errorf("active campaigns %d after completion", sz.Campaigns.Active)
		}
		if sz.Campaigns.Retained != 2 {
			t.Errorf("retained campaigns %d, want 2", sz.Campaigns.Retained)
		}
		if len(sz.Workers) != 2 {
			t.Errorf("statusz reports %d workers, want 2", len(sz.Workers))
		}
		if sz.Cache.Jobs <= 0 {
			t.Errorf("cache jobs %d, want > 0", sz.Cache.Jobs)
		}
		for _, phase := range []string{"queued", "leased", "simulating", "collating"} {
			if sz.SLO[phase].Count < 2 {
				t.Errorf("SLO phase %q observed %d times, want >= 2", phase, sz.SLO[phase].Count)
			}
		}
	})

	t.Run("request IDs", func(t *testing.T) {
		resp1 := doReq(t, http.MethodGet, api.URL+"/v1/campaigns", tenants[0], nil)
		resp1.Body.Close()
		resp2 := doReq(t, http.MethodGet, api.URL+"/v1/campaigns", tenants[0], nil)
		resp2.Body.Close()
		id1, id2 := resp1.Header.Get(obs.RequestIDHeader), resp2.Header.Get(obs.RequestIDHeader)
		if id1 == "" || id2 == "" {
			t.Fatalf("missing request ID headers: %q, %q", id1, id2)
		}
		if id1 == id2 {
			t.Errorf("request IDs not unique: %s", id1)
		}
	})
}

// TestTraceEndpointStates pins the non-200 trace responses: 409 while
// the campaign is still running, 404 when the server was started
// without campaign tracing.
func TestTraceEndpointStates(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("stub: campaign aborted")
	}

	traced := New(Config{Collector: stub, TraceCampaigns: true})
	defer traced.Close()
	tracedAPI := httptest.NewServer(traced.Handler())
	defer tracedAPI.Close()

	id := submit(t, tracedAPI.URL, "alice", testSpec(1))
	if status, body := fetch(t, tracedAPI.URL, "alice", "/v1/campaigns/"+id+"/trace"); status != http.StatusConflict {
		t.Fatalf("running campaign trace status %d: %s, want 409", status, body)
	}
	close(release)

	untraced := New(Config{Collector: stub})
	defer untraced.Close()
	untracedAPI := httptest.NewServer(untraced.Handler())
	defer untracedAPI.Close()

	id2 := submit(t, untracedAPI.URL, "alice", testSpec(1))
	if status, body := fetch(t, untracedAPI.URL, "alice", "/v1/campaigns/"+id2+"/trace"); status != http.StatusNotFound {
		t.Fatalf("untraced campaign trace status %d: %s, want 404", status, body)
	}
}

// TestReadyz pins the readiness contract: always 200, with the body
// distinguishing full capacity from degraded (local-fallback) mode.
func TestReadyz(t *testing.T) {
	local := New(Config{})
	defer local.Close()
	localAPI := httptest.NewServer(local.Handler())
	defer localAPI.Close()
	status, body := fetch(t, localAPI.URL, "", "/readyz")
	if status != http.StatusOK {
		t.Fatalf("local readyz status %d", status)
	}
	var rb map[string]any
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb["status"] != "ok" || rb["mode"] != "local" {
		t.Fatalf("local readyz body %s", body)
	}

	// A coordinator whose only worker is unreachable: degraded, not
	// failing — campaigns still run via local fallback.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coord := dist.NewCoordinator(dist.CoordinatorConfig{Workers: []string{dead.URL}})
	degraded := New(Config{Coordinator: coord})
	defer degraded.Close()
	degradedAPI := httptest.NewServer(degraded.Handler())
	defer degradedAPI.Close()
	status, body = fetch(t, degradedAPI.URL, "", "/readyz")
	if status != http.StatusOK {
		t.Fatalf("degraded readyz status %d (readiness must degrade, not fail)", status)
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb["status"] != "degraded" || rb["mode"] != "distributed" {
		t.Fatalf("degraded readyz body %s", body)
	}
	if live, ok := rb["workers_live"].(float64); !ok || live != 0 {
		t.Fatalf("degraded readyz workers_live %v, want 0", rb["workers_live"])
	}
}

// TestAdmissionControl pins the 429 surface: fleet capacity and
// per-tenant quotas, with slots released when campaigns finish.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 16)
	stub := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		name := opt.Name
		started <- name
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("stub: campaign aborted")
	}
	reg := obs.NewRegistry()
	svc := New(Config{Collector: stub, Registry: reg, MaxCampaigns: 2, TenantQuota: 1})
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	spec := testSpec(1)
	post := func(tenant string) *http.Response {
		body, _ := json.Marshal(spec)
		return doReq(t, http.MethodPost, api.URL+"/v1/campaigns", tenant, bytes.NewReader(body))
	}

	// First campaign per tenant is admitted, the second trips the
	// tenant quota, a third tenant trips fleet capacity.
	r1 := post("alice")
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("alice #1: %d", r1.StatusCode)
	}
	r1.Body.Close()
	<-started

	r2 := post("alice")
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice #2: %d, want 429", r2.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(r2.Body).Decode(&e); err != nil || e.Reason != "tenant-quota" {
		t.Fatalf("alice #2 reason %q (err %v), want tenant-quota", e.Reason, err)
	}
	r2.Body.Close()

	r3 := post("bob")
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("bob: %d", r3.StatusCode)
	}
	r3.Body.Close()
	<-started

	r4 := post("carol")
	if r4.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("carol: %d, want 429", r4.StatusCode)
	}
	e = apiError{}
	if err := json.NewDecoder(r4.Body).Decode(&e); err != nil || e.Reason != "capacity" {
		t.Fatalf("carol reason %q (err %v), want capacity", e.Reason, err)
	}
	r4.Body.Close()

	snap := reg.Snapshot()
	if snap[`gemstone_serve_rejected_total{tenant="alice",reason="tenant-quota"}`] != 1 ||
		snap[`gemstone_serve_rejected_total{tenant="carol",reason="capacity"}`] != 1 {
		t.Errorf("rejection metrics wrong: %v %v",
			snap[`gemstone_serve_rejected_total{tenant="alice",reason="tenant-quota"}`],
			snap[`gemstone_serve_rejected_total{tenant="carol",reason="capacity"}`])
	}

	// Releasing the stub frees the slots: carol is admitted once the
	// in-flight campaigns settle.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := post("carol")
		code := r.StatusCode
		r.Body.Close()
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("carol still rejected (%d) after slots should have freed", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	svc.Close()
}

// TestSpecErrors pins the decode taxonomy at the HTTP boundary —
// malformed bytes 400, well-formed-but-invalid specs 422 — and that
// rejected submissions neither start campaigns nor leak goroutines.
func TestSpecErrors(t *testing.T) {
	svc := New(Config{Collector: func(context.Context, *platform.Platform, core.CollectOptions) (*core.RunSet, error) {
		t.Error("rejected spec started a campaign")
		return nil, nil
	}})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"not json", "not json at all", http.StatusBadRequest},
		{"wrong type", `"a string"`, http.StatusBadRequest},
		{"unknown field", `{"bogus_field": 1}`, http.StatusBadRequest},
		{"trailing data", `{} {}`, http.StatusBadRequest},
		{"type mismatch", `{"freq_mhz": "fast"}`, http.StatusBadRequest},
		{"bad version", `{"gem5_version": 99}`, http.StatusUnprocessableEntity},
		{"bad cluster", `{"cluster": "m7"}`, http.StatusUnprocessableEntity},
		{"bad workload", `{"workloads": ["no-such-workload"]}`, http.StatusUnprocessableEntity},
		{"dup workload", `{"workloads": ["mi-qsort", "mi-qsort"]}`, http.StatusUnprocessableEntity},
		{"bad freq", `{"freqs_mhz": [123]}`, http.StatusUnprocessableEntity},
		{"analysis freq not swept", `{"freq_mhz": 1400, "freqs_mhz": [1000]}`, http.StatusUnprocessableEntity},
		{"negative max", `{"max_workloads": -1}`, http.StatusUnprocessableEntity},
		{"fidelity wrong type", `{"fidelity": 7}`, http.StatusBadRequest},
		{"bad fidelity", `{"fidelity": "turbo"}`, http.StatusUnprocessableEntity},
		{"bad mode", `{"mode": "sideways"}`, http.StatusUnprocessableEntity},
		{"fidelity in screen mode", `{"mode": "screen", "fidelity": "atomic"}`, http.StatusUnprocessableEntity},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doReq(t, http.MethodPost, api.URL+"/v1/campaigns", "t", strings.NewReader(tc.body))
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, b)
			}
		})
	}
	// Rejected submissions must not leave campaign goroutines behind.
	// Allow slack for the HTTP server's transient conn goroutines.
	time.Sleep(50 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("goroutines grew %d -> %d across rejected submissions", before, after)
	}

	t.Run("bad tenant header", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodGet, api.URL+"/v1/campaigns", nil)
		req.Header.Set(TenantHeader, "no spaces allowed")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestChaosSoak runs a campaign through the service while the transport
// drops, corrupts and delays worker traffic and a KillSwitch crashes a
// worker mid-campaign. The SSE stream must still terminate with a
// complete, correct result set — byte-identical archives. Guarded by
// -short: the retry/backoff churn makes it the slowest service test.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in short mode")
	}
	n := 4
	spec := testSpec(n)
	goldenHW, goldenSim := localGolden(t, spec)

	healthy := startWorker(t, nil)
	doomed := startWorker(t, func(h http.Handler) http.Handler {
		return &dist.KillSwitch{Handler: h, After: 2}
	})
	chaos := &dist.Chaos{
		Seed:          7,
		DropProb:      0.15,
		DuplicateProb: 0.05,
		CorruptProb:   0.1,
		DelayProb:     0.1,
		Delay:         50 * time.Millisecond,
		MaxFaults:     30,
	}
	coord := dist.NewCoordinator(dist.CoordinatorConfig{
		Workers:    []string{healthy.URL, doomed.URL},
		Client:     &http.Client{Transport: chaos},
		RunTimeout: 10 * time.Second,
	})
	svc := New(Config{Coordinator: coord, Registry: obs.NewRegistry()})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	id := submit(t, api.URL, "soak", spec)
	events := followSSE(t, api.URL, "soak", id)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("stream ended with %q (error=%q), want done", last.Type, last.Error)
	}

	status, gotHW := fetch(t, api.URL, "soak", "/v1/campaigns/"+id+"/archive/hw")
	if status != http.StatusOK {
		t.Fatalf("hw archive status %d", status)
	}
	if !bytes.Equal(gotHW, archiveBytes(t, goldenHW)) {
		t.Error("hw archive differs from local collect under chaos")
	}
	status, gotSim := fetch(t, api.URL, "soak", "/v1/campaigns/"+id+"/archive/sim")
	if status != http.StatusOK {
		t.Fatalf("sim archive status %d", status)
	}
	if !bytes.Equal(gotSim, archiveBytes(t, goldenSim)) {
		t.Error("sim archive differs from local collect under chaos")
	}
	t.Logf("chaos: %d faults (%d drops, %d dups, %d corrupts, %d delays)",
		chaos.Faults(), chaos.Drops(), chaos.Duplicates(), chaos.Corrupts(), chaos.Delays())
}

// TestServerCloseCancelsCampaigns pins shutdown: Close cancels running
// campaigns, their streams end with an error frame, and Close returns.
func TestServerCloseCancelsCampaigns(t *testing.T) {
	block := make(chan struct{})
	stub := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		close(block)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	svc := New(Config{Collector: stub})
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	id := submit(t, api.URL, "t", testSpec(1))
	<-block

	events := make(chan []Event, 1)
	go func() { events <- followSSE(t, api.URL, "t", id) }()

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case evs := <-events:
		if len(evs) == 0 {
			t.Fatal("empty stream")
		}
		if last := evs[len(evs)-1]; last.Type != "error" {
			t.Fatalf("stream ended with %q, want error", last.Type)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate after Close")
	}

	// New submissions are refused after Close.
	body, _ := json.Marshal(testSpec(1))
	resp := doReq(t, http.MethodPost, api.URL+"/v1/campaigns", "t", bytes.NewReader(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post after close: %d, want 503", resp.StatusCode)
	}
}

// TestTerminalFrameAtomicity is the regression test for the SSE
// terminal-frame race: complete/failWith commit the terminal frame and
// the terminal state under one campaign mutex hold, so a subscriber
// running the stream handler's loop can never observe a terminal state
// without having already drained the terminal frame. A mid-window
// snapshot (terminal state, "done" not yet appended) would make the
// stream close one frame short.
func TestTerminalFrameAtomicity(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		c := newCampaign("c", "t", testSpec(1))
		fail := make(chan string, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			cursor := 0
			var last Event
			for {
				tail, notify, state := c.snapshot(cursor)
				cursor += len(tail)
				if len(tail) > 0 {
					last = tail[len(tail)-1]
					if last.Type == "done" || last.Type == "error" {
						return // the handler's normal exit: terminal frame written
					}
					continue
				}
				if state.Terminal() {
					// The handler's backstop exit: nothing to drain and the
					// state is terminal — the terminal frame must already
					// have been delivered.
					select {
					case fail <- fmt.Sprintf("terminal state observed with last frame %q, want done", last.Type):
					default:
					}
					return
				}
				<-notify
			}
		}()
		c.append(Event{Type: "started"})
		c.append(Event{Type: "validated"})
		c.complete(nil, nil, nil, Event{Type: "done"})
		<-done
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
	}
}

// waitTerminal polls a campaign's status until it reports a terminal
// state (an already-evicted campaign counts: eviction implies terminal).
func waitTerminal(t *testing.T, base, tenant, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := fetch(t, base, tenant, "/v1/campaigns/"+id)
		if status == http.StatusNotFound {
			return
		}
		var st statusBody
		if err := json.Unmarshal(body, &st); err == nil && st.State.Terminal() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s not terminal after 10s (last status %d: %s)", id, status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetentionEviction pins the memory bound on terminal campaigns:
// once more than MaxRetained campaigns have settled, the oldest are
// evicted (404, gone from the listing) so a long-running daemon's
// footprint is in-flight work plus a fixed archive window — never the
// lifetime submission count.
func TestRetentionEviction(t *testing.T) {
	stub := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		return nil, fmt.Errorf("stub: fail fast")
	}
	reg := obs.NewRegistry()
	svc := New(Config{Collector: stub, Registry: reg, MaxRetained: 2, MaxCampaigns: -1, TenantQuota: -1})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		id := submit(t, api.URL, "t", testSpec(1))
		ids = append(ids, id)
		waitTerminal(t, api.URL, "t", id)
	}

	// Eviction runs when a campaign settles (after its terminal frame),
	// so poll briefly for the oldest two to disappear.
	for _, id := range ids[:2] {
		deadline := time.Now().Add(10 * time.Second)
		for {
			status, _ := fetch(t, api.URL, "t", "/v1/campaigns/"+id)
			if status == http.StatusNotFound {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s still retained beyond MaxRetained=2", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, id := range ids[2:] {
		if status, _ := fetch(t, api.URL, "t", "/v1/campaigns/"+id); status != http.StatusOK {
			t.Fatalf("retained campaign %s: status %d, want 200", id, status)
		}
	}
	status, body := fetch(t, api.URL, "t", "/v1/campaigns")
	if status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	var list []json.RawMessage
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listing has %d campaigns, want the 2 retained", len(list))
	}
	// The counter increments just after the eviction's critical section,
	// so give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := reg.Snapshot()["gemstone_serve_evicted_total"]; got == 2 {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("gemstone_serve_evicted_total = %v, want 2", got)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeleteCampaign pins the DELETE surface: running campaigns 409
// (deletion never frees an admission slot), terminal campaigns delete
// to 204 and then 404, and cross-tenant deletes 404 without removing
// anything.
func TestDeleteCampaign(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("stub: campaign aborted")
	}
	svc := New(Config{Collector: stub})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	id := submit(t, api.URL, "alice", testSpec(1))

	resp := doReq(t, http.MethodDelete, api.URL+"/v1/campaigns/"+id, "alice", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete of running campaign: %d, want 409", resp.StatusCode)
	}

	close(release)
	waitTerminal(t, api.URL, "alice", id)

	resp = doReq(t, http.MethodDelete, api.URL+"/v1/campaigns/"+id, "bob", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant delete: %d, want 404", resp.StatusCode)
	}
	if status, _ := fetch(t, api.URL, "alice", "/v1/campaigns/"+id); status != http.StatusOK {
		t.Fatalf("campaign gone after cross-tenant delete: status %d", status)
	}

	resp = doReq(t, http.MethodDelete, api.URL+"/v1/campaigns/"+id, "alice", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", resp.StatusCode)
	}
	if status, _ := fetch(t, api.URL, "alice", "/v1/campaigns/"+id); status != http.StatusNotFound {
		t.Fatalf("campaign still present after delete: status %d", status)
	}
	resp = doReq(t, http.MethodDelete, api.URL+"/v1/campaigns/"+id, "alice", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: %d, want 404", resp.StatusCode)
	}
}

// TestQueueDepthGauge pins gemstone_serve_queue_depth: admitted
// campaigns raise their tenant's gauge, terminal transitions (here the
// failure path — the stub errors on release) drain it back to zero,
// and /v1/statusz mirrors the same per-tenant depths while campaigns
// are in flight.
// holdTerminalLog is a slog handler that holds the service's
// post-terminal log line ("campaign done" / "campaign failed") until
// release is closed. The line is logged after the terminal frame is
// published and before the campaign settles, so holding it keeps a test
// inside that window.
type holdTerminalLog struct{ release chan struct{} }

func (h holdTerminalLog) Enabled(context.Context, slog.Level) bool { return true }
func (h holdTerminalLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h holdTerminalLog) WithGroup(string) slog.Handler            { return h }

func (h holdTerminalLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "campaign done" || r.Message == "campaign failed" {
		select {
		case <-h.release:
		case <-time.After(10 * time.Second):
		}
	}
	return nil
}

// TestCampaignsCounterAtTerminalFrame pins the campaigns-done
// reconciliation gemload relies on: a scrape taken straight after a
// client reads the terminal SSE frame already counts the campaign's
// outcome, with the campaign's settle held back.
func TestCampaignsCounterAtTerminalFrame(t *testing.T) {
	local := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		return core.Collect(ctx, pl, opt)
	}
	failing := func(context.Context, *platform.Platform, core.CollectOptions) (*core.RunSet, error) {
		return nil, fmt.Errorf("stub: campaign aborted")
	}
	for _, c := range []struct {
		outcome, frame string
		collect        CollectFunc
	}{
		{"done", "done", local},
		{"failed", "error", failing},
	} {
		release := make(chan struct{})
		reg := obs.NewRegistry()
		svc := New(Config{Collector: c.collect, Registry: reg, Log: slog.New(holdTerminalLog{release})})
		api := httptest.NewServer(svc.Handler())

		id := submit(t, api.URL, "alice", testSpec(1))
		events := followSSE(t, api.URL, "alice", id)
		snap := reg.Snapshot()
		close(release)
		api.Close()
		svc.Close()

		if len(events) == 0 || events[len(events)-1].Type != c.frame {
			t.Fatalf("%s: stream ended with %+v, want a %q frame", c.outcome, events, c.frame)
		}
		key := fmt.Sprintf(`gemstone_serve_campaigns_total{tenant="alice",outcome=%q}`, c.outcome)
		if snap[key] != 1 {
			t.Errorf("%s = %v straight after the terminal frame, want 1", key, snap[key])
		}
		if got := snap[`gemstone_serve_queue_depth{tenant="alice"}`]; got != 0 {
			t.Errorf("%s: queue depth %v straight after the terminal frame, want 0", c.outcome, got)
		}
	}
}

func TestQueueDepthGauge(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 16)
	stub := func(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
		name := opt.Name
		started <- name
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("stub: campaign aborted")
	}
	reg := obs.NewRegistry()
	svc := New(Config{Collector: stub, Registry: reg, MaxCampaigns: -1, TenantQuota: -1})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	for _, tn := range []string{"alice", "alice", "bob"} {
		id := submit(t, api.URL, tn, testSpec(1))
		if id == "" {
			t.Fatal("empty id")
		}
		<-started
	}

	snap := reg.Snapshot()
	if got := snap[`gemstone_serve_queue_depth{tenant="alice"}`]; got != 2 {
		t.Errorf("alice queue depth = %v, want 2", got)
	}
	if got := snap[`gemstone_serve_queue_depth{tenant="bob"}`]; got != 1 {
		t.Errorf("bob queue depth = %v, want 1", got)
	}

	// /v1/statusz surfaces the same depths.
	code, body := fetch(t, api.URL, "alice", "/v1/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var sz struct {
		Campaigns struct {
			QueueDepth map[string]int `json:"queue_depth"`
		} `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &sz); err != nil {
		t.Fatal(err)
	}
	if sz.Campaigns.QueueDepth["alice"] != 2 || sz.Campaigns.QueueDepth["bob"] != 1 {
		t.Errorf("statusz queue_depth = %v, want alice:2 bob:1", sz.Campaigns.QueueDepth)
	}

	// Terminal transitions — failures included — drain the gauge.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap = reg.Snapshot()
		if snap[`gemstone_serve_queue_depth{tenant="alice"}`] == 0 &&
			snap[`gemstone_serve_queue_depth{tenant="bob"}`] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never drained: alice=%v bob=%v",
				snap[`gemstone_serve_queue_depth{tenant="alice"}`],
				snap[`gemstone_serve_queue_depth{tenant="bob"}`])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap[`gemstone_serve_campaigns_total{tenant="alice",outcome="failed"}`] != 2 {
		t.Errorf("alice failed count = %v, want 2",
			snap[`gemstone_serve_campaigns_total{tenant="alice",outcome="failed"}`])
	}
	code, body = fetch(t, api.URL, "alice", "/v1/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	sz.Campaigns.QueueDepth = nil
	if err := json.Unmarshal(body, &sz); err != nil {
		t.Fatal(err)
	}
	if len(sz.Campaigns.QueueDepth) != 0 {
		t.Errorf("statusz queue_depth after drain = %v, want empty", sz.Campaigns.QueueDepth)
	}
}
