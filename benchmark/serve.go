package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gemstone"
	"gemstone/internal/core"
	"gemstone/internal/dist"
	"gemstone/internal/load"
	"gemstone/internal/obs"
	"gemstone/internal/serve"
	"gemstone/internal/xrand"
)

// serve-mixed: an open-loop Poisson load from one process, over at most
// nproc connections, against an in-process `gemstone serve` whose
// campaigns run on a dist coordinator over two in-process gemstoned
// workers, with a tiered (memory over disk) run cache. The traffic is
// cold campaigns, warm resubmissions, SSE event replays and validation
// reads, weighted 1:3:3:3, over three Zipf(1.1) tenants. It loads serve,
// the dist wire and leases, HTTP handling and the memory cache tier; the
// simulator does little work and the analysis kernels none.
//
// Its cold operation is a cold campaign, its warm operation a warm
// resubmission, and its reads the events and validation reads, all timed
// from their intended arrival at the ladder's nominal step.
var serveMixed = workloadDef{
	Name: "serve-mixed",
	PerLayer: []string{
		"core.cache_get_ms", "core.cache_hit_share",
		"dist.probe_ms", "dist.slot_wait_ms", "dist.dispatch_ms", "dist.worker_sim_ms",
		"dist.wire_overhead_ms", "dist.retries",
		"serve.queued_ms", "serve.leased_ms", "serve.simulating_ms", "serve.collating_ms",
		"serve.post_ms", "serve.events_ms", "serve.validation_ms", "serve.rejected",
		"serve.max_rps_at_slo", "load.cold_tail_ms", "load.warm_tail_ms", "load.read_tail_ms",
		"load.lateness_ms", "load.slot_wait_ms", "host.peak_rss_mb", "obs.trace_overhead_pct",
	},
	Run: runServeMixed,
}

// Traffic shape.
const (
	serveTenants = 3
	serveSkew    = 1.1
	// replayWindow is how many of the fleet-wide most recent campaigns
	// replay targets are drawn from: below serve's retention cap
	// (serve.DefaultMaxRetained terminal campaigns, evicted oldest first)
	// by more than the campaigns that can be submitted while a target is
	// picked, so a target is always still retained and a 404 is a real
	// failure.
	replayWindow = serve.DefaultMaxRetained - 16
	opTimeout    = 30 * time.Second
	// drainCap bounds how long after its arrival window a step keeps
	// starting queued arrivals; the rest count as backlog, never issued.
	drainCap = 2 * time.Second
)

// opClass is one request class of the mix.
type opClass int

const (
	opCold opClass = iota
	opWarm
	opEvents
	opValidation
	numClasses
)

var classNames = [numClasses]string{"cold", "warm", "events", "validation"}

// mixWeights is gemload's default mix, cold:warm:events:validation.
var mixWeights = []float64{1, 3, 3, 3}

// sloStep is one rate of the load ladder.
type sloStep struct {
	Rate     float64       // arrivals per second
	Duration time.Duration // arrival window
}

// The ladder, as shares of the run length. Latencies are reported at its
// first (nominal) step, a light load at which an operation seldom waits
// for a connection, so the reported latencies measure the service rather
// than the client's two connections (at 15 rps and above, waits behind
// cold event streams already reach the tail percentiles). An untraced
// run measures only the nominal step, over nominalShare of the run; a
// traced run climbs the whole ladder to find serve.max_rps_at_slo, the
// goodput of the highest step at which every class meets its limit with
// no backlog and no failure. The service's knee sits near 150 rps on a
// quiet 2-vCPU host and near 75 rps when half the CPU is stolen by other
// tenants of the host, so the steps stay clear of both: 40 rps passes in
// either state and 240 rps is past capacity in either, and host noise
// cannot flip a step. The metric therefore flags only a gross loss of
// capacity.
var (
	serveLadder = []struct {
		Rate  float64
		Share float64
	}{{10, 0.6}, {40, 0.08}, {240, 0.06}}
	// sloLimitMS is each class's limit on its p90 latency on the ladder.
	sloLimitMS = [numClasses]float64{opCold: 500, opWarm: 250, opEvents: 250, opValidation: 250}
)

const (
	// nominalShare is the untraced nominal step's length, as a share of
	// the run.
	nominalShare = 0.85
	// tracedShare is the traced nominal step's length.
	tracedShare = 0.2
)

// ladder scales serveLadder to a run of the given length.
func ladder(seconds float64) []sloStep {
	out := make([]sloStep, len(serveLadder))
	for i, l := range serveLadder {
		out[i] = sloStep{Rate: l.Rate, Duration: share(l.Share, seconds)}
	}
	return out
}

func share(sh, seconds float64) time.Duration {
	return time.Duration(sh * seconds * float64(time.Second))
}

// fleet is one in-process service: serve over a dist coordinator over
// two gemstoned workers, with a tiered run cache.
type fleet struct {
	url     string
	svc     *serve.Server
	servers []*http.Server
	client  *http.Client
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// startFleet boots a fleet whose cache lives under dir. Admission limits
// are raised above what conns connections can hold in flight, so the
// client's own connection cap, not admission control, bounds the load.
func startFleet(dir string, conns int, traced bool) (*fleet, error) {
	f := &fleet{}
	reg := obs.NewRegistry()
	var workers []string
	for i := 0; i < 2; i++ {
		srv, url, err := listen(dist.NewWorker(dist.WorkerConfig{}).Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		workers = append(workers, url)
	}
	cache, err := core.OpenRunCache(dir)
	if err != nil {
		f.close()
		return nil, err
	}
	cfg := serve.Config{
		Coordinator:  dist.NewCoordinator(dist.CoordinatorConfig{Workers: workers, Registry: reg}),
		Cache:        cache,
		Registry:     reg,
		MaxCampaigns: 2 * conns,
		TenantQuota:  2 * conns,
	}
	if traced {
		cfg.Tracer = obs.NewTracer()
		cfg.TraceCampaigns = true
	}
	f.svc = serve.New(cfg)
	srv, url, err := listen(f.svc.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.servers = append(f.servers, srv)
	f.url = url
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	f.client = &http.Client{Transport: tr}
	return f, nil
}

func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.svc != nil {
		f.svc.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		srv.Shutdown(ctx)
	}
}

// campaignRec is one campaign the client saw complete.
type campaignRec struct {
	id       string
	seq      int
	tenant   int
	workload string
	mape     float64
}

// arrival is one scheduled operation. Its class, tenant and target rank
// are drawn from the seed when the step is generated; the target itself
// is resolved when the operation starts, from the campaigns completed by
// then.
type arrival struct {
	at     time.Duration // offset from the step start
	class  opClass
	tenant int
	rank   int
}

// schedule draws a step's arrivals: a Poisson process of the step's rate
// conditioned on its expected count (uniform order statistics), with the
// classes in exact 1:3:3:3 proportion in seeded order, so every seed
// offers the same number of operations of each class.
func schedule(rng *xrand.RNG, st sloStep) []arrival {
	n := int(st.Rate*st.Duration.Seconds() + 0.5)
	classes := classCounts(n)
	var order []opClass
	for c, k := range classes {
		for i := 0; i < k; i++ {
			order = append(order, opClass(c))
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	tenants := load.NewZipf(rng.Split(), serveTenants, serveSkew)
	ranks := load.NewZipf(rng.Split(), replayWindow, serveSkew)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(st.Duration))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: at[i], class: order[i], tenant: tenants.Next(), rank: ranks.Next()}
	}
	return out
}

// classCounts splits n operations across the classes in mix proportion,
// giving rounding leftovers to the reads.
func classCounts(n int) [numClasses]int {
	var total float64
	for _, w := range mixWeights {
		total += w
	}
	var out [numClasses]int
	left := n
	for c := opClass(0); c < numClasses; c++ {
		out[c] = int(float64(n) * mixWeights[c] / total)
		left -= out[c]
	}
	out[opValidation] += left
	return out
}

// tailPercentile is the highest whole percentile with at least ten of n
// samples beyond it (nearest rank), or 50 when n is too small.
func tailPercentile(n int) float64 {
	if n <= 20 {
		return 50
	}
	return math.Floor(100 * float64(n-10) / float64(n))
}

// stepStats is what one ladder step measured.
type stepStats struct {
	lat        [numClasses][]float64 // ms from intended arrival, successful ops
	attempted  [numClasses]int
	failed     [numClasses]int
	backlog    int       // arrivals never issued: still queued drainCap after the window
	lateness   []float64 // ms the generator dispatched each arrival late
	slotWait   []float64 // ms from arrival to a free connection
	lastDone   time.Duration
	jobs, hits int // run-cache jobs and hits over the step's campaigns (SSE frames)
}

func (s *stepStats) ok() int {
	n := 0
	for c := range s.lat {
		n += len(s.lat[c])
	}
	return n
}

// meetsSLO reports whether every class met its limit with no failure and
// no backlog.
func (s *stepStats) meetsSLO() bool {
	if s.backlog > 0 {
		return false
	}
	for c := opClass(0); c < numClasses; c++ {
		if s.failed[c] > 0 || percentile(s.lat[c], 90) > sloLimitMS[c] {
			return false
		}
	}
	return true
}

// loadState is the client's view of the service during one step.
type loadState struct {
	mu        sync.Mutex
	primes    []string // the workload each tenant's set-up campaign runs
	coldOrder []string // seeded fleet-wide order of the cold workloads
	coldNext  int      // position of the next cold workload in coldOrder
	coldRan   [serveTenants]map[string]bool
	originals [serveTenants][]campaignRec // cold campaigns, for warm resubmission
	done      [serveTenants][]campaignRec // every completed campaign, for reads
	maxSeq    int                         // highest campaign sequence number submitted
	doneCount int                         // campaigns that reached "done"
	all       []campaignRec
}

// newLoadState prepares a step's cold campaigns. The catalogue's first
// serveTenants workloads prime the tenants during set-up; a step with n
// cold operations runs the next n workloads of the catalogue first (in
// seeded order), so the set of cold workloads, and with it the cold
// latency distribution, does not depend on the seed.
func newLoadState(rng *xrand.RNG, n int) *loadState {
	var names []string
	for _, p := range gemstone.ValidationWorkloads() {
		names = append(names, p.Name)
	}
	st := &loadState{primes: names[:serveTenants]}
	pool := names[serveTenants:]
	k := min(n, len(pool))
	st.coldOrder = append(shuffled(rng, pool[:k]), shuffled(rng, pool[k:])...)
	for t := range st.coldRan {
		st.coldRan[t] = map[string]bool{st.primes[t]: true}
	}
	return st
}

func shuffled(rng *xrand.RNG, in []string) []string {
	out := append([]string(nil), in...)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// nextCold returns the tenant and workload of the next cold campaign:
// the next workload in the fleet-wide order that tenant t has never
// submitted, so cold campaigns miss the tenant's cache and, across
// tenants, cycle through the catalogue before any workload repeats. A
// tenant that has run every workload hands the campaign to the next.
func (st *loadState) nextCold(t int) (int, string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.coldOrder)
	for dt := 0; dt < serveTenants; dt++ {
		tt := (t + dt) % serveTenants
		for k := 0; k < n; k++ {
			w := st.coldOrder[(st.coldNext+k)%n]
			if !st.coldRan[tt][w] {
				st.coldRan[tt][w] = true
				st.coldNext = (st.coldNext + k + 1) % n
				return tt, w, true
			}
		}
	}
	return 0, "", false
}

// pick resolves a replay target: the tenant's rank-th newest cold
// original (warm), or its rank-th newest completed campaign among the
// fleet-wide replayWindow most recent (reads).
func (st *loadState) pick(t int, class opClass, rank int) (campaignRec, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var list []campaignRec
	if class == opWarm {
		list = st.originals[t]
	} else {
		for _, r := range st.done[t] {
			if r.seq > st.maxSeq-replayWindow {
				list = append(list, r)
			}
		}
	}
	if len(list) == 0 {
		return campaignRec{}, false
	}
	return list[len(list)-1-rank%len(list)], true
}

func (st *loadState) submitted(seq int) {
	st.mu.Lock()
	st.maxSeq = max(st.maxSeq, seq)
	st.mu.Unlock()
}

func (st *loadState) completed(r campaignRec, cold bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if cold {
		st.originals[r.tenant] = append(st.originals[r.tenant], r)
	}
	st.done[r.tenant] = append(st.done[r.tenant], r)
	st.doneCount++
	st.all = append(st.all, r)
}

func tenantName(t int) string { return fmt.Sprintf("bench-t%d", t) }

// sseFrames is what an event stream delivered.
type sseFrames struct {
	terminal  []string // terminal frame types, in order
	mape      float64  // MAPE of the done frame
	jobs      int      // Σ collect-start jobs
	cacheHits int      // Σ collect-done cache hits
}

// readEvents reads a campaign's SSE stream to its end.
func readEvents(body io.Reader) (sseFrames, error) {
	var fr sseFrames
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 16<<10), 1<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev serve.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return fr, fmt.Errorf("decode %s frame: %w", typ, err)
			}
			switch ev.Type {
			case "done", "error":
				fr.terminal = append(fr.terminal, ev.Type)
				fr.mape = ev.MAPE
			case "collect-start":
				fr.jobs += ev.Jobs
			case "collect-done":
				fr.cacheHits += ev.CacheHits
			}
		}
	}
	return fr, sc.Err()
}

// checkTerminal requires exactly one terminal frame, and that it is done.
func checkTerminal(fr sseFrames) error {
	if len(fr.terminal) != 1 || fr.terminal[0] != "done" {
		return fmt.Errorf("terminal frames %v, want exactly one done", fr.terminal)
	}
	return nil
}

// checkWarm requires a warm resubmission to reproduce its cold original's
// MAPE exactly, replaying every job from the cache.
func checkWarm(fr sseFrames, original campaignRec) error {
	if fr.mape != original.mape {
		return fmt.Errorf("MAPE %v, its cold original %s had %v", fr.mape, original.id, original.mape)
	}
	if fr.cacheHits != fr.jobs {
		return fmt.Errorf("hit the cache on %d of %d jobs", fr.cacheHits, fr.jobs)
	}
	return nil
}

// checkCounts requires the service's campaign outcome counters to equal
// the client's count of campaigns it saw done, with none failed.
func checkCounts(serverDone, serverFailed float64, clientDone int) error {
	if serverDone != float64(clientDone) || serverFailed != 0 {
		return fmt.Errorf("server counted %v done and %v failed campaigns; the client saw %d done",
			serverDone, serverFailed, clientDone)
	}
	return nil
}

// client issues the mix's operations against one fleet.
type client struct {
	f  *fleet
	st *loadState
}

func (c *client) do(ctx context.Context, method, path string, tenant int, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.f.url+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(serve.TenantHeader, tenantName(tenant))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.f.client.Do(req)
}

// campaign submits a one-workload a15@1000 campaign and follows its event
// stream to the end. want, when non-nil, is the cold original a warm
// resubmission must reproduce.
func (c *client) campaign(ctx context.Context, tenant int, workload string, want *campaignRec, ss *stepStats) error {
	body, err := json.Marshal(serve.CampaignSpec{
		Cluster: "a15", FreqMHz: 1000, FreqsMHz: []int{1000}, Workloads: []string{workload},
	})
	if err != nil {
		return err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/campaigns", tenant, body)
	if err != nil {
		return err
	}
	var status struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	seq, err := strconv.Atoi(strings.TrimPrefix(status.ID, "c-"))
	if err != nil {
		return fmt.Errorf("submit: campaign id %q", status.ID)
	}
	c.st.submitted(seq)

	fr, err := c.events(ctx, tenant, status.ID)
	if err != nil {
		return err
	}
	if ss != nil {
		ss.jobs += fr.jobs
		ss.hits += fr.cacheHits
	}
	if err := checkTerminal(fr); err != nil {
		return fmt.Errorf("campaign %s: %v", status.ID, err)
	}
	if want != nil {
		if err := checkWarm(fr, *want); err != nil {
			return fmt.Errorf("warm campaign %s: %v", status.ID, err)
		}
	}
	c.st.completed(campaignRec{id: status.ID, seq: seq, tenant: tenant, workload: workload, mape: fr.mape}, want == nil)
	return nil
}

func (c *client) events(ctx context.Context, tenant int, id string) (sseFrames, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/events", tenant, nil)
	if err != nil {
		return sseFrames{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return sseFrames{}, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	fr, err := readEvents(resp.Body)
	if err != nil {
		return fr, fmt.Errorf("events %s: %w", id, err)
	}
	return fr, nil
}

func (c *client) validation(ctx context.Context, r campaignRec) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+r.id+"/validation", r.tenant, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("validation %s: status %d", r.id, resp.StatusCode)
	}
	var vs struct {
		MAPE float64 `json:"mape"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vs); err != nil {
		return fmt.Errorf("validation %s: %w", r.id, err)
	}
	if vs.MAPE != r.mape {
		return fmt.Errorf("validation %s MAPE %v, its done frame had %v", r.id, vs.MAPE, r.mape)
	}
	return nil
}

// execute runs one arrival, resolving its target; the returned class is
// the one actually run (a replay with no target yet runs cold).
func (c *client) execute(ctx context.Context, a arrival, ss *stepStats) (opClass, error) {
	class := a.class
	var target campaignRec
	if class != opCold {
		var ok bool
		if target, ok = c.st.pick(a.tenant, class, a.rank); !ok {
			class = opCold
		}
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	switch class {
	case opCold:
		tenant, workload, ok := c.st.nextCold(a.tenant)
		if !ok {
			return class, errors.New("every tenant has run every workload cold")
		}
		return class, c.campaign(ctx, tenant, workload, nil, ss)
	case opWarm:
		return class, c.campaign(ctx, target.tenant, target.workload, &target, ss)
	case opEvents:
		fr, err := c.events(ctx, target.tenant, target.id)
		if err != nil {
			return class, err
		}
		if err := checkTerminal(fr); err != nil {
			return class, fmt.Errorf("replay of %s: %v", target.id, err)
		}
		return class, nil
	default:
		return class, c.validation(ctx, target)
	}
}

// runStep offers one step's arrivals over conns connections and waits
// for every issued operation to finish. An arrival waits for a free
// connection; its latency is timed from its intended arrival, so a wait
// counts.
func (c *client) runStep(ctx context.Context, arrivals []arrival, st sloStep, conns int, cfg runConfig) *stepStats {
	ss := &stepStats{}
	type due struct {
		a        arrival
		intended time.Time
	}
	queue := make(chan due, len(arrivals)) // one slot per arrival: the dispatcher never blocks
	var mu sync.Mutex
	start := time.Now()
	windowEnd := start.Add(st.Duration)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				picked := time.Now()
				if picked.After(windowEnd.Add(drainCap)) {
					mu.Lock()
					ss.backlog++
					mu.Unlock()
					continue
				}
				local := &stepStats{}
				class, err := c.execute(ctx, d.a, local)
				finished := time.Now()
				mu.Lock()
				ss.slotWait = append(ss.slotWait, ms(picked.Sub(d.intended)))
				ss.attempted[class]++
				ss.jobs += local.jobs
				ss.hits += local.hits
				if err != nil {
					ss.failed[class]++
					cfg.logf("serve-mixed: %s op failed: %v", classNames[class], err)
				} else {
					ss.lat[class] = append(ss.lat[class], ms(finished.Sub(d.intended)))
				}
				ss.lastDone = max(ss.lastDone, finished.Sub(start))
				mu.Unlock()
			}
		}()
	}
	for _, a := range arrivals {
		intended := start.Add(a.at)
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		ss.lateness = append(ss.lateness, ms(time.Since(intended)))
		queue <- due{a: a, intended: intended}
	}
	close(queue)
	wg.Wait()
	return ss
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scrape fetches and parses the service's /metrics.
func (c *client) scrape(ctx context.Context) (*load.Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.f.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return load.ParseMetrics(resp.Body)
}

// reconcile waits for the service to settle every campaign, then
// requires its campaign counters to match what the client observed
// exactly: every campaign the client saw done, and none failed.
func (c *client) reconcile(ctx context.Context) (*load.Metrics, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.scrape(ctx)
		if err != nil {
			return nil, err
		}
		c.st.mu.Lock()
		want := c.st.doneCount
		c.st.mu.Unlock()
		done := m.Sum("gemstone_serve_campaigns_total", map[string]string{"outcome": "done"})
		failed := m.Sum("gemstone_serve_campaigns_total", map[string]string{"outcome": "failed"})
		active := m.Sum("gemstone_serve_campaigns_active", nil)
		if active == 0 {
			return m, checkCounts(done, failed, want)
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("%v campaigns still active 5s after the step", active)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveRun is one fleet's lifetime: set-up (boot and one primed cold
// campaign per tenant, so every tenant has replay targets), one step, and
// the reconciliation.
type serveRun struct {
	setup           float64
	stats           *stepStats
	allocs, peakRSS float64       // heap objects allocated and peak RSS MiB during the step
	base            *load.Metrics // scrape after set-up
	final           *load.Metrics // scrape after the step
	traces          []*spanTree   // per-campaign traces of the retained campaigns (traced only)
}

func serveStep(ctx context.Context, cfg runConfig, rng *xrand.RNG, idx int, step sloStep, conns int, traced bool, rss *rssSampler) (*serveRun, *result, error) {
	res := newResult()
	run := &serveRun{}
	t0 := time.Now()
	f, err := startFleet(filepath.Join(cfg.WorkDir, fmt.Sprintf("serve-cache-%d", idx)), conns, traced)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()
	arrivals := schedule(rng.Split(), step)
	st := newLoadState(rng.Split(), classCounts(len(arrivals))[opCold])
	c := &client{f: f, st: st}
	for t, w := range st.primes {
		res.Attempted++
		if err := c.campaign(ctx, t, w, nil, nil); err != nil {
			return nil, nil, fmt.Errorf("prime tenant %d: %w", t, err)
		}
	}
	run.setup = time.Since(t0).Seconds()
	if run.base, err = c.scrape(ctx); err != nil {
		return nil, nil, err
	}

	rss.start()
	alloc0 := heapAllocs()
	run.stats = c.runStep(ctx, arrivals, step, conns, cfg)
	run.allocs = heapAllocs() - alloc0
	run.peakRSS = rss.take()
	for cl := opClass(0); cl < numClasses; cl++ {
		res.Attempted += run.stats.attempted[cl]
		res.Failed += run.stats.failed[cl]
	}
	final, err := c.reconcile(ctx)
	res.check(cfg, fmt.Sprintf("step %d reconciliation", idx), err)
	run.final = final
	if traced {
		if run.traces, err = c.retainedTraces(ctx); err != nil {
			return nil, nil, err
		}
	}
	return run, res, nil
}

// retainedTraces fetches the fleet-wide trace of every completed
// campaign still inside the replay window.
func (c *client) retainedTraces(ctx context.Context) ([]*spanTree, error) {
	c.st.mu.Lock()
	var recs []campaignRec
	for _, r := range c.st.all {
		if r.seq > c.st.maxSeq-replayWindow {
			recs = append(recs, r)
		}
	}
	c.st.mu.Unlock()
	var out []*spanTree
	for _, r := range recs {
		resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+r.id+"/trace", r.tenant, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("trace %s: status %d", r.id, resp.StatusCode)
		}
		t, err := treeFromChrome(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", r.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

func merge(dst, src *result) {
	dst.Attempted += src.Attempted
	dst.Failed += src.Failed
}

func runServeMixed(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := newResult()
	rss := startRSSSampler()
	defer rss.close()
	conns := runtime.NumCPU()
	res.Notes["connections"] = conns
	rng := xrand.New(cfg.Seed)
	nominalRate := serveLadder[0].Rate
	var setups []float64
	// step runs one step on a fresh fleet, recording its set-up.
	step := func(st sloStep, traced bool) (*serveRun, error) {
		r, sr, err := serveStep(ctx, cfg, rng.Split(), len(setups), st, conns, traced, rss)
		if err != nil {
			return nil, err
		}
		merge(res, sr)
		setups = append(setups, r.setup)
		return r, nil
	}

	if !cfg.Trace {
		// Set-ups without a step, which also warm the process up, then
		// the measured nominal step on a fresh fleet.
		for len(setups) < minSetups-1 {
			if _, err := step(sloStep{Rate: nominalRate}, false); err != nil {
				return nil, err
			}
		}
		nominal, err := step(sloStep{Rate: nominalRate, Duration: share(nominalShare, cfg.Seconds)}, false)
		if err != nil {
			return nil, err
		}
		ns := nominal.stats
		reads := append(append([]float64(nil), ns.lat[opEvents]...), ns.lat[opValidation]...)
		m := res.Metrics
		m["setup_s"] = median(setups)
		m["cold_p50_ms"] = percentile(ns.lat[opCold], 50)
		m["warm_p50_ms"] = percentile(ns.lat[opWarm], 50)
		m["read_p50_ms"] = percentile(reads, 50)
		m["heap_allocs"] = nominal.allocs
		res.Notes["setup_samples_s"] = setups
		res.Notes["nominal_samples"] = map[string]int{
			"cold": len(ns.lat[opCold]), "warm": len(ns.lat[opWarm]), "read": len(reads),
		}
		return res, nil
	}

	// The ladder, untraced, then a traced step at the nominal rate: the
	// per-layer numbers come from it, the overhead from it against the
	// ladder's nominal step.
	var nominal *serveRun
	maxRPS := 0.0
	passing := true // every step so far met the SLO
	var steps []map[string]any
	steps0 := ladder(cfg.Seconds)
	for i, st := range steps0 {
		r, err := step(st, false)
		if err != nil {
			return nil, err
		}
		ss := r.stats
		if i == 0 {
			nominal = r
		}
		goodput := float64(ss.ok()) / ss.lastDone.Seconds()
		pass := ss.meetsSLO()
		if passing = passing && pass; passing {
			maxRPS = goodput
		}
		row := map[string]any{"rate": st.Rate, "pass": pass, "goodput_rps": goodput, "backlog": ss.backlog}
		for c := opClass(0); c < numClasses; c++ {
			row[classNames[c]+"_p90_ms"] = percentile(ss.lat[c], 90)
			row[classNames[c]+"_failed"] = ss.failed[c]
		}
		steps = append(steps, row)
		cfg.logf("serve-mixed: step %d (%.0f/s): pass %v goodput %.1f/s %v", i, st.Rate, pass, goodput, row)
	}
	res.Notes["ladder"] = steps
	ns := nominal.stats
	reads := append(append([]float64(nil), ns.lat[opEvents]...), ns.lat[opValidation]...)
	// Tail percentiles follow from the nominal step's class counts, which
	// the schedule fixes for a given run length.
	counts := classCounts(int(steps0[0].Rate*steps0[0].Duration.Seconds() + 0.5))
	coldPct := tailPercentile(counts[opCold])
	warmPct := tailPercentile(counts[opWarm])
	readPct := tailPercentile(counts[opEvents] + counts[opValidation])
	m := res.Metrics
	m["load.cold_tail_ms"] = percentile(ns.lat[opCold], coldPct)
	m["load.warm_tail_ms"] = percentile(ns.lat[opWarm], warmPct)
	m["load.read_tail_ms"] = percentile(reads, readPct)
	m["serve.max_rps_at_slo"] = maxRPS
	m["host.peak_rss_mb"] = nominal.peakRSS
	res.Notes["tail_percentiles"] = map[string]float64{"cold": coldPct, "warm": warmPct, "read": readPct}

	traced, err := step(sloStep{Rate: nominalRate, Duration: share(tracedShare, cfg.Seconds)}, true)
	if err != nil {
		return nil, err
	}
	serveLayers(res, nominal, traced)
	return res, nil
}

// serveLayers derives the per-layer metrics from the traced step (and the
// overhead against the untraced one).
func serveLayers(res *result, plain, traced *serveRun) {
	m := res.Metrics
	ss := traced.stats
	m["core.cache_hit_share"] = float64(ss.hits) / float64(max(ss.jobs, 1))

	var cachePass, probe, slotWait, dispatch, workerSim []float64
	for _, t := range traced.traces {
		var campaignProbe float64
		t.each("probe", func(_ int, s *span) { campaignProbe += ms(s.Dur) })
		probe = append(probe, campaignProbe)
		t.each("cache-pass", func(_ int, s *span) { cachePass = append(cachePass, ms(s.Dur)) })
		t.each("slot-wait", func(_ int, s *span) { slotWait = append(slotWait, ms(s.Dur)) })
		t.each("dispatch", func(_ int, s *span) { dispatch = append(dispatch, ms(s.Dur)) })
		for i := range t.spans {
			if s := &t.spans[i]; s.Proc != 0 && s.Name == "simulate" {
				workerSim = append(workerSim, ms(s.Dur))
			}
		}
	}
	m["core.cache_get_ms"] = mean(cachePass)
	m["dist.probe_ms"] = mean(probe)
	m["dist.slot_wait_ms"] = mean(slotWait)
	m["dist.dispatch_ms"] = mean(dispatch)
	m["dist.worker_sim_ms"] = mean(workerSim)
	m["dist.wire_overhead_ms"] = mean(dispatch) - mean(workerSim)
	res.Notes["traced_campaigns"] = len(traced.traces)
	res.Notes["traced_dispatches"] = len(dispatch)

	base, cur := traced.base, traced.final
	m["dist.retries"] = load.SumDelta(base, cur, "gemstone_dist_retries_total", nil)
	histMean := func(name string, match map[string]string) float64 {
		n := load.SumDelta(base, cur, name+"_count", match)
		if n == 0 {
			return 0
		}
		return load.SumDelta(base, cur, name+"_sum", match) / n * 1e3
	}
	for _, phase := range []string{"queued", "leased", "simulating", "collating"} {
		m["serve."+phase+"_ms"] = histMean("gemstone_serve_slo_phase_seconds", map[string]string{"phase": phase})
	}
	m["serve.post_ms"] = histMean("gemstone_serve_request_seconds", map[string]string{"route": "/v1/campaigns", "method": "POST"})
	m["serve.events_ms"] = histMean("gemstone_serve_request_seconds", map[string]string{"route": "/v1/campaigns/{id}/events"})
	m["serve.validation_ms"] = histMean("gemstone_serve_request_seconds", map[string]string{"route": "/v1/campaigns/{id}/validation"})
	m["serve.rejected"] = load.SumDelta(base, cur, "gemstone_serve_rejected_total", nil)
	m["load.lateness_ms"] = mean(ss.lateness)
	m["load.slot_wait_ms"] = mean(ss.slotWait)

	campaignLat := func(s *stepStats) float64 {
		return median(append(append([]float64(nil), s.lat[opCold]...), s.lat[opWarm]...))
	}
	p, t := campaignLat(plain.stats), campaignLat(ss)
	m["obs.trace_overhead_pct"] = 100 * (t - p) / p
}
