package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/xrand"
)

// CoordinatorConfig tunes a Coordinator. The zero value of every field is
// usable: no workers means every campaign runs locally.
type CoordinatorConfig struct {
	// Workers lists worker base addresses ("host:port" or a full URL).
	Workers []string
	// Client issues all worker HTTP requests. Tests install a Chaos
	// transport here; nil means a private default client.
	Client *http.Client
	// RunTimeout bounds one remote attempt: a dispatched job that has not
	// answered within it is abandoned and retried. 0 means 2 minutes.
	RunTimeout time.Duration
	// BackoffBase shapes retry delays: attempt n waits BackoffBase<<(n-1),
	// capped at backoffMax, jittered ±50%. 0 means 50ms.
	BackoffBase time.Duration
	// Registry, when non-nil, receives gemstone_dist_* metrics.
	Registry *obs.Registry
	// Log, when non-nil, receives coordinator logging.
	Log *slog.Logger
}

// Fixed coordinator tuning.
const (
	// probeTimeout bounds the per-worker hello probe.
	probeTimeout = 5 * time.Second
	// maxAttempts bounds remote attempts per job before the coordinator
	// simulates it locally.
	maxAttempts = 3
	// backoffMax caps the retry delay.
	backoffMax = 2 * time.Second
)

// WorkerStats is the per-worker provenance a coordinator accumulates
// across campaigns, recorded into the run ledger manifest.
type WorkerStats struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Capacity is the parallelism the worker advertised at probe time.
	Capacity int `json:"capacity"`
	// Jobs counts measurements this worker contributed.
	Jobs int `json:"jobs"`
	// Retries counts failed attempts against this worker.
	Retries int `json:"retries"`
	// Alive reports whether the worker was healthy after its last campaign.
	Alive bool `json:"alive"`
}

// Coordinator shards campaigns across remote workers. It is safe for
// concurrent campaigns over one shared fleet: each worker's advertised
// capacity is enforced by a shared slot pool (a campaign never opens
// request slots the fleet does not have), every job is owned by one lane
// of one campaign from claim to result, and worker provenance accumulates
// across campaigns for the ledger.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client
	log    *slog.Logger

	// Metrics are nil when no Registry was configured; every use is
	// nil-guarded so a bare Coordinator stays allocation-free on the
	// metrics path.
	mWorkerUp   *obs.Gauge
	mInflight   *obs.Gauge
	mQueue      *obs.Gauge
	mRetries    *obs.Counter
	mJobs       *obs.Counter
	mHTTPErrors *obs.Counter

	// seq names anonymous campaigns (Collect with an empty opt.Name).
	seq atomic.Int64

	mu       sync.Mutex
	stats    map[string]*WorkerStats
	slots    map[string]*slotPool
	degraded int
}

// slotPool bounds the coordinator-side request slots of one worker across
// every concurrent campaign. The limit is the worker's advertised
// parallelism: holding a slot is holding the right to have one request
// in flight against that worker. It is a resizable counting semaphore
// rather than a buffered channel so that when a restarted worker comes
// back advertising different parallelism the limit adjusts in place:
// slots held by campaigns probed under the old capacity keep counting
// against the new limit, and the fleet can never exceed the worker's
// current advertised capacity — not even transiently across old and new
// campaigns together.
type slotPool struct {
	mu    sync.Mutex
	limit int
	held  int
	wake  chan struct{} // closed and replaced whenever a slot may have freed
}

func newSlotPool(limit int) *slotPool {
	return &slotPool{limit: limit, wake: make(chan struct{})}
}

// acquire blocks until a slot is free or either cancel channel is
// closed, reporting whether the slot was taken.
func (sp *slotPool) acquire(cancelA, cancelB <-chan struct{}) bool {
	for {
		sp.mu.Lock()
		if sp.held < sp.limit {
			sp.held++
			sp.mu.Unlock()
			return true
		}
		wake := sp.wake
		sp.mu.Unlock()
		select {
		case <-wake:
		case <-cancelA:
			return false
		case <-cancelB:
			return false
		}
	}
}

// release returns a slot and wakes every waiter (each re-checks under
// the lock, so a spurious wake-up costs one loop iteration, never a
// slot).
func (sp *slotPool) release() {
	sp.mu.Lock()
	sp.held--
	close(sp.wake)
	sp.wake = make(chan struct{})
	sp.mu.Unlock()
}

// setLimit adjusts the pool's capacity in place. Growing wakes waiters;
// shrinking below the held count revokes nothing — in-flight requests
// finish, and new acquisitions wait until enough slots release.
func (sp *slotPool) setLimit(limit int) {
	sp.mu.Lock()
	if limit != sp.limit {
		sp.limit = limit
		close(sp.wake)
		sp.wake = make(chan struct{})
	}
	sp.mu.Unlock()
}

// NewCoordinator builds a coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 2 * time.Minute
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		log:    cfg.Log,
		stats:  make(map[string]*WorkerStats),
		slots:  make(map[string]*slotPool),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if reg := cfg.Registry; reg != nil {
		c.mWorkerUp = reg.Gauge("gemstone_dist_worker_up",
			"Worker health: 1 when the last probe or request succeeded.", "worker")
		c.mInflight = reg.Gauge("gemstone_dist_inflight_leases",
			"Jobs currently dispatched to remote workers.")
		c.mQueue = reg.Gauge("gemstone_dist_queue_depth",
			"Campaign lanes waiting for a worker slot.")
		c.mRetries = reg.Counter("gemstone_dist_retries_total",
			"Remote job attempts that failed and were rescheduled.")
		c.mJobs = reg.Counter("gemstone_dist_jobs_total",
			"Jobs finished, by execution mode.", "mode")
		c.mHTTPErrors = reg.Counter("gemstone_dist_http_errors_total",
			"Worker request failures, by kind.", "kind")
	}
	return c
}

// WorkerStats reports per-worker provenance accumulated across this
// coordinator's campaigns, sorted by address.
func (c *Coordinator) WorkerStats() []WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStats, 0, len(c.stats))
	for _, ws := range c.stats {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// DegradedCampaigns counts campaigns that ran fully locally because no
// worker answered the probe (or the platform had no wire spec).
func (c *Coordinator) DegradedCampaigns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// LiveWorkers probes every configured worker right now and reports how
// many answered with a compatible hello. Probe outcomes update the
// cached WorkerStats, so a readiness endpoint calling this keeps the
// fleet snapshot fresh as a side effect. The probe respects ctx as well
// as the fixed probe timeout.
func (c *Coordinator) LiveWorkers(ctx context.Context) int {
	return len(c.probe(ctx))
}

// slotsFor returns the shared slot pool for a worker, resizing it in
// place when the advertised capacity changed (a restarted worker may
// come back with different parallelism). Pool identity is stable for a
// worker's lifetime, so campaigns probed under the old capacity and
// campaigns probed under the new one are counted by the same semaphore.
func (c *Coordinator) slotsFor(base string, capacity int) *slotPool {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, ok := c.slots[base]
	if !ok {
		sp = newSlotPool(capacity)
		c.slots[base] = sp
	} else {
		sp.setLimit(capacity)
	}
	return sp
}

func (c *Coordinator) workerStat(addr string) *WorkerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.stats[addr]
	if !ok {
		ws = &WorkerStats{Addr: addr}
		c.stats[addr] = ws
	}
	return ws
}

func (c *Coordinator) logf() *slog.Logger {
	if c.log != nil {
		return c.log
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// workerConn is one probed, healthy worker for the duration of a campaign.
// The alive flag and failure count are per-campaign (a worker benched by
// one campaign's faults is re-probed by the next); the slot pool is the
// fleet-shared capacity semaphore.
type workerConn struct {
	base     string // normalised base URL
	capacity int
	slots    *slotPool // shared across concurrent campaigns
	alive    atomic.Bool
	fails    atomic.Int32 // consecutive request failures
}

// deadAfter is the consecutive-failure count that marks a worker dead for
// the rest of the campaign. Two strikes: a single fault-injected hiccup
// must not bench a healthy worker, but a crashed one fails every request
// and is benched almost immediately.
const deadAfter = 2

func normalizeAddr(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + strings.TrimRight(addr, "/")
}

// noteProbe records a probe outcome in the shared per-worker stats.
// Campaigns probe concurrently, so the write happens under the
// coordinator lock like every other WorkerStats mutation.
func (c *Coordinator) noteProbe(base string, alive bool, capacity int) {
	st := c.workerStat(base)
	c.mu.Lock()
	st.Alive = alive
	if alive {
		st.Capacity = capacity
	}
	c.mu.Unlock()
}

// probe hellos every configured worker and returns the healthy ones.
func (c *Coordinator) probe(ctx context.Context) []*workerConn {
	var conns []*workerConn
	for _, addr := range c.cfg.Workers {
		base := normalizeAddr(addr)
		hello, err := c.hello(ctx, base)
		if err != nil {
			c.logf().Warn("worker probe failed", "worker", base, "err", err)
			if c.mWorkerUp != nil {
				c.mWorkerUp.Set(0, base)
			}
			c.noteProbe(base, false, 0)
			continue
		}
		if hello.Proto != ProtoVersion {
			c.logf().Warn("worker speaks a different protocol",
				"worker", base, "proto", hello.Proto, "want", ProtoVersion)
			if c.mWorkerUp != nil {
				c.mWorkerUp.Set(0, base)
			}
			c.noteProbe(base, false, 0)
			continue
		}
		if c.mWorkerUp != nil {
			c.mWorkerUp.Set(1, base)
		}
		c.noteProbe(base, true, hello.Capacity)
		conn := &workerConn{
			base:     base,
			capacity: max(hello.Capacity, 1),
			slots:    c.slotsFor(base, hello.Capacity),
		}
		conn.alive.Store(true)
		conns = append(conns, conn)
	}
	return conns
}

func (c *Coordinator) hello(ctx context.Context, base string) (Hello, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathHello, nil)
	if err != nil {
		return Hello{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return Hello{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Hello{}, fmt.Errorf("dist: hello: status %s", resp.Status)
	}
	var h Hello
	if err := gob.NewDecoder(resp.Body).Decode(&h); err != nil {
		return Hello{}, fmt.Errorf("dist: decoding hello: %w", err)
	}
	return h, nil
}

// Collect runs a campaign across the configured workers. It is a drop-in
// replacement for core.Collect with the identical result contract: the
// returned RunSet (and its canonical archive bytes) are bit-for-bit what
// a local collection produces. When no worker answers the probe — or the
// platform cannot be named over the wire — it degrades to pure-local
// execution with no error.
//
// The campaign runs on core.CollectLanes, the driver behind core.Collect,
// with one lane per advertised worker slot: the cache, the observer, the
// sweep-affine unit scheduling and fail-fast are core's, and only the
// cache-miss step (fleetCampaign.run) is the coordinator's.
//
// opt.Name names the campaign in coordinator logging and in the trace
// context stamped on every job, so a service scheduling concurrent
// campaigns (gemstone serve) can attribute worker activity to the tenant
// campaign that owns it. An empty Name is auto-assigned.
//
// Collect may be called concurrently: campaigns share the worker fleet
// (per-worker capacity is enforced fleet-wide, so overlapping campaigns
// queue for slots instead of overloading workers).
func (c *Coordinator) Collect(ctx context.Context, pl *platform.Platform, opt core.CollectOptions) (*core.RunSet, error) {
	name := opt.Name
	if name == "" {
		name = fmt.Sprintf("campaign-%d", c.seq.Add(1))
	}
	root := opt.Tracer.Start("collect",
		obs.String("platform", pl.Name()), obs.String("campaign", name),
		obs.Bool("distributed", true))
	defer root.End()

	spec, ok := SpecFor(pl)
	probeSpan := root.Child("probe", obs.Int("workers", len(c.cfg.Workers)))
	conns := c.probe(ctx)
	probeSpan.Annotate(obs.Int("alive", len(conns)))
	probeSpan.End()
	if !ok || len(conns) == 0 {
		reason := "no workers available"
		if !ok {
			reason = "platform has no wire spec"
		}
		c.logf().Info("degrading campaign to local execution",
			"platform", pl.Name(), "reason", reason)
		c.mu.Lock()
		c.degraded++
		c.mu.Unlock()
		// End the distributed root before delegating: the local collector
		// starts its own fully-detailed "collect" root, and this span
		// should cover only the probing that preceded the degradation
		// decision.
		root.Annotate(obs.Bool("degraded", true), obs.String("reason", reason))
		root.End()
		return core.Collect(ctx, pl, opt)
	}

	fc := &fleetCampaign{
		c:        c,
		ctx:      ctx,
		name:     name,
		opt:      &opt,
		spec:     spec,
		fp:       pl.Config().Fingerprint(),
		conns:    conns,
		local:    core.LocalLanes(pl, opt.Fidelity, 1),
		localSem: make(chan struct{}, 1),
		rng:      xrand.New(1),
	}
	// Slot s of every worker before slot s+1 of any: a campaign with fewer
	// units than slots still spreads over the whole fleet.
	slots := 0
	for _, w := range conns {
		slots = max(slots, w.capacity)
	}
	for s := range slots {
		for _, w := range conns {
			if s < w.capacity {
				fc.home = append(fc.home, w)
			}
		}
	}
	rs, stats, err := core.CollectLanes(ctx, pl, opt, root, len(fc.home), fc.run)
	if c.mJobs != nil && stats.CacheHits > 0 {
		c.mJobs.Add(float64(stats.CacheHits), "cache")
	}
	locals := int(fc.locals.Load())
	c.logf().Info("distributed campaign done",
		"campaign", name, "platform", pl.Name(), "jobs", stats.Jobs,
		"remote", stats.Simulated-locals, "local", locals,
		"cache_hits", stats.CacheHits, "errors", stats.Errors,
		"wall", stats.WallTime.Round(time.Millisecond).String())
	return rs, err
}

// fleetCampaign is one distributed campaign's cache-miss step: run is the
// core.LaneFunc of its lanes, one per advertised worker slot.
type fleetCampaign struct {
	c     *Coordinator
	ctx   context.Context // the caller's; bounds every request
	name  string
	opt   *core.CollectOptions
	spec  PlatformSpec
	fp    string
	conns []*workerConn
	home  []*workerConn // lane → the worker whose slot it dispatches to

	// local simulates fallback jobs on one lazily built SimContext;
	// localSem admits one fallback simulation at a time.
	local    core.LaneFunc
	localSem chan struct{}
	locals   atomic.Int64

	rngMu sync.Mutex
	rng   *xrand.RNG
}

// run dispatches j to the lane's home worker — or, once that worker is
// benched, to another live one — and retries failed attempts with
// jittered backoff. After maxAttempts failures, or once no worker is
// alive, it simulates j on the coordinator. A 422 is terminal: the
// simulation failed deterministically and would fail anywhere.
func (fc *fleetCampaign) run(ctx context.Context, lane int, j core.PlannedJob, sp *obs.Span) (platform.Measurement, time.Duration, error) {
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		w := fc.pick(lane)
		if w == nil {
			break
		}
		m, simTime, err := fc.dispatch(ctx, w, j, sp)
		if err == nil || isTerminal(err) {
			return m, simTime, err
		}
		if ctx.Err() != nil {
			return platform.Measurement{}, 0, ctx.Err()
		}
		fc.noteWorkerFailure(w, err)
		fc.c.logf().Warn("remote attempt failed",
			"campaign", fc.name, "job", j.Key.String(),
			"worker", w.base, "attempt", attempt, "err", err)
		if attempt == maxAttempts || fc.pick(lane) == nil {
			break
		}
		if err := sleep(ctx, fc.backoff(attempt)); err != nil {
			return platform.Measurement{}, 0, err
		}
	}
	return fc.simulateLocal(ctx, j, sp)
}

// pick returns the worker a lane dispatches to: its home while that is
// alive, else the first live worker, or nil once the fleet is gone.
func (fc *fleetCampaign) pick(lane int) *workerConn {
	if w := fc.home[lane]; w.alive.Load() {
		return w
	}
	for _, w := range fc.conns {
		if w.alive.Load() {
			return w
		}
	}
	return nil
}

// dispatch runs one remote attempt of j on w: it waits for one of w's
// fleet-shared slots — concurrent campaigns contend here, so the worker
// never sees more in-flight requests than it advertised — then posts the
// job. sp is the lane's trace span (nil when untraced); the dispatch child
// it opens is the local-side window the worker's returned spans are
// clamped into, so a stitched trace nests worker activity inside the
// exchange that provably contained it.
func (fc *fleetCampaign) dispatch(ctx context.Context, w *workerConn, j core.PlannedJob, sp *obs.Span) (platform.Measurement, time.Duration, error) {
	c := fc.c
	waitSpan := sp.Child("slot-wait")
	gaugeAdd(c.mQueue, 1)
	ok := w.slots.acquire(ctx.Done(), nil)
	gaugeAdd(c.mQueue, -1)
	waitSpan.End()
	if !ok {
		return platform.Measurement{}, 0, ctx.Err()
	}
	defer w.slots.release()

	var dspan *obs.Span
	if sp != nil {
		dspan = sp.Child("dispatch", obs.String("job", j.Key.String()), obs.String("worker", w.base))
	}
	gaugeAdd(c.mInflight, 1)
	m, simSec, batch, err := fc.runRemote(w, j)
	gaugeAdd(c.mInflight, -1)
	if err != nil {
		kind := "retry"
		if isTerminal(err) {
			kind = "terminal"
		}
		dspan.Annotate(obs.String("error", kind))
		dspan.End()
		return platform.Measurement{}, 0, err
	}
	dspan.End()
	if batch != nil {
		fc.opt.Tracer.ImportProcess("worker "+w.base,
			batch.spans, batch.offset, batch.lo, batch.hi)
	}
	w.fails.Store(0)
	st := c.workerStat(w.base)
	c.mu.Lock()
	st.Jobs++
	c.mu.Unlock()
	if c.mJobs != nil {
		c.mJobs.Inc("remote")
	}
	return m, time.Duration(simSec * float64(time.Second)), nil
}

// simulateLocal is the coordinator-side fallback: j simulates here exactly
// as a local campaign would, one fallback at a time per campaign.
func (fc *fleetCampaign) simulateLocal(ctx context.Context, j core.PlannedJob, sp *obs.Span) (platform.Measurement, time.Duration, error) {
	select {
	case fc.localSem <- struct{}{}:
	case <-ctx.Done():
		return platform.Measurement{}, 0, ctx.Err()
	}
	defer func() { <-fc.localSem }()
	if ctx.Err() != nil {
		return platform.Measurement{}, 0, ctx.Err()
	}
	m, simTime, err := fc.local(ctx, 0, j, sp)
	if err == nil {
		fc.locals.Add(1)
		if fc.c.mJobs != nil {
			fc.c.mJobs.Inc("local")
		}
	}
	return m, simTime, err
}

// noteWorkerFailure charges a failed attempt to w; deadAfter consecutive
// failures bench it for the rest of the campaign, and the lanes homed on
// it move to another live worker or, with none left, to the local
// fallback.
func (fc *fleetCampaign) noteWorkerFailure(w *workerConn, err error) {
	c := fc.c
	if c.mRetries != nil {
		c.mRetries.Inc()
	}
	st := c.workerStat(w.base)
	c.mu.Lock()
	st.Retries++
	c.mu.Unlock()
	if w.fails.Add(1) < deadAfter || !w.alive.CompareAndSwap(true, false) {
		return
	}
	if c.mWorkerUp != nil {
		c.mWorkerUp.Set(0, w.base)
	}
	c.mu.Lock()
	st.Alive = false
	c.mu.Unlock()
	c.logf().Warn("worker benched for this campaign", "worker", w.base, "err", err)
}

// backoff computes the jittered delay before attempt n+1.
func (fc *fleetCampaign) backoff(n int) time.Duration {
	d := fc.c.cfg.BackoffBase << (n - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	fc.rngMu.Lock()
	f := 0.5 + fc.rng.Float64()
	fc.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleep waits d, or returns ctx.Err() as soon as ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// gaugeAdd adjusts g when metrics are configured.
func gaugeAdd(g *obs.Gauge, delta float64) {
	if g != nil {
		g.Add(delta)
	}
}

// remoteError is a retryable worker-request failure, tagged for the
// gemstone_dist_http_errors_total metric.
type remoteError struct {
	kind string // conn | status | decode | proto | misroute | digest
	err  error
}

func (e *remoteError) Error() string { return fmt.Sprintf("dist: %s: %v", e.kind, e.err) }
func (e *remoteError) Unwrap() error { return e.err }

// simFailedError wraps a worker's 422: the simulation itself failed.
// Deterministic simulations fail everywhere, so this is terminal — the
// campaign stops instead of retrying, matching local Collect.
type simFailedError struct{ msg string }

func (e *simFailedError) Error() string { return e.msg }

func isTerminal(err error) bool {
	var sf *simFailedError
	return errors.As(err, &sf)
}

// workerSpanBatch is one job's worth of worker-side spans plus what the
// coordinator needs to place them on its own timeline: the estimated
// worker-minus-coordinator clock offset and the local dispatch window
// [lo, hi] that provably contains the worker's activity.
type workerSpanBatch struct {
	spans  []obs.SpanRecord
	offset time.Duration
	lo, hi time.Time
}

// runRemote performs one HTTP attempt of j against w under the RunTimeout
// deadline, verifying protocol version, job identity and payload digest
// before trusting the measurement. When the job was traced and the worker
// returned spans, the non-nil batch carries them with a clock-offset
// estimate derived from the exchange's four timestamps (the coordinator's
// send/receive bracket the worker's receive/done, NTP-style):
//
//	offset = ((W0 - t0) + (W1 - t1)) / 2
//
// The symmetric-delay assumption can be off by half the round trip, so
// the importer additionally clamps every span into [t0, t1] — worker
// spans can therefore never escape the dispatch span that contains them,
// whatever the skew (including negative offsets).
func (fc *fleetCampaign) runRemote(w *workerConn, j core.PlannedJob) (platform.Measurement, float64, *workerSpanBatch, error) {
	job := Job{
		Proto:      ProtoVersion,
		ID:         j.CacheKey,
		Spec:       fc.spec,
		PlatformFP: fc.fp,
		Profile:    j.Profile,
		Cluster:    j.Key.Cluster,
		FreqMHz:    j.Key.FreqMHz,
		Fidelity:   fc.opt.Fidelity,
	}
	if tc := fc.opt.Trace; tc.Correlated() || fc.opt.Tracer.Enabled() {
		if tc.Campaign == "" {
			tc.Campaign = fc.name
		}
		tc.Job = j.CacheKey
		tc.Parent = "dispatch"
		tc.Record = fc.opt.Tracer.Enabled()
		job.Trace = tc
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(job); err != nil {
		return platform.Measurement{}, 0, nil, fc.httpErr("encode", err)
	}
	ctx, cancel := context.WithTimeout(fc.ctx, fc.c.cfg.RunTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+PathRun, bytes.NewReader(body.Bytes()))
	if err != nil {
		return platform.Measurement{}, 0, nil, fc.httpErr("encode", err)
	}
	req.Header.Set("Content-Type", contentType)

	sendT := time.Now()
	resp, err := fc.c.client.Do(req)
	if err != nil {
		kind := "conn"
		if ctx.Err() == context.DeadlineExceeded {
			kind = "lease-expired"
		}
		return platform.Measurement{}, 0, nil, fc.httpErr(kind, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to decoding
	case http.StatusUnprocessableEntity:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return platform.Measurement{}, 0, nil, &simFailedError{msg: strings.TrimSpace(string(msg))}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return platform.Measurement{}, 0, nil, fc.httpErr("status",
			fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg))))
	}

	var res RunResult
	if err := gob.NewDecoder(resp.Body).Decode(&res); err != nil {
		return platform.Measurement{}, 0, nil, fc.httpErr("decode", err)
	}
	recvT := time.Now()
	if res.Proto != ProtoVersion {
		return platform.Measurement{}, 0, nil, fc.httpErr("proto",
			fmt.Errorf("result protocol %d, want %d", res.Proto, ProtoVersion))
	}
	if res.ID != job.ID {
		return platform.Measurement{}, 0, nil, fc.httpErr("misroute",
			fmt.Errorf("result for %s, want %s", res.ID, job.ID))
	}
	m, err := res.Measurement()
	if err != nil {
		return platform.Measurement{}, 0, nil, fc.httpErr("digest", err)
	}
	var batch *workerSpanBatch
	if len(res.Spans) > 0 && res.RecvUnixNano != 0 && res.DoneUnixNano != 0 {
		w0 := time.Unix(0, res.RecvUnixNano)
		w1 := time.Unix(0, res.DoneUnixNano)
		offset := (w0.Sub(sendT) + w1.Sub(recvT)) / 2
		batch = &workerSpanBatch{spans: res.Spans, offset: offset, lo: sendT, hi: recvT}
	}
	return m, res.SimSeconds, batch, nil
}

func (fc *fleetCampaign) httpErr(kind string, err error) error {
	if fc.c.mHTTPErrors != nil {
		fc.c.mHTTPErrors.Inc(kind)
	}
	return &remoteError{kind: kind, err: err}
}
