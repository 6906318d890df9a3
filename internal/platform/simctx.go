package platform

import (
	"slices"

	"gemstone/internal/branch"
	"gemstone/internal/isa"
	"gemstone/internal/mem"
	"gemstone/internal/obs"
	"gemstone/internal/pipeline"
	"gemstone/internal/pmu"
	"gemstone/internal/workload"
	"gemstone/internal/xrand"
)

// clusterSim is the reusable simulation state for one cluster: the memory
// hierarchy, branch predictor and core are built once and Reset between
// runs instead of reallocated.
type clusterSim struct {
	hier *mem.Hierarchy
	pred *branch.Predictor
	core *pipeline.Core

	// DVFS trace of the most recently simulated workload on this cluster
	// (see mem.DVFSTrace): the memory-system event stream is
	// frequency-invariant, so the first run of a workload records the
	// per-access latency decomposition and later runs of it at other
	// frequencies replay it — bit-identical results at a fraction of the
	// work.
	trace     mem.DVFSTrace
	traceProf workload.Profile
	traceOK   bool

	// Atomic-tier anchor cache (see atomic.go): the truncated detailed
	// samples at the cluster's DVFS extremes for the most recently
	// predicted workload.
	anchors atomicAnchors
}

// SimContext runs workloads on a Platform while reusing all heavyweight
// simulation state between runs. A fresh Hierarchy/Predictor/Core costs
// hundreds of kilobytes of allocation per run; a campaign performs
// thousands of runs, so the cold-campaign allocation profile was dominated
// by this churn. The context keeps one clusterSim per cluster (Reset()
// restores just-constructed state, so results are bit-identical to fresh
// construction — the golden equivalence tests pin this) and a one-entry
// cache of the most recently expanded instruction stream. Every cache is
// one-entry, so it pays off when consecutive runs share a workload; how
// core.Collect schedules runs to make that so is its unitBounds rule.
//
// A SimContext is not safe for concurrent use; create one per worker.
type SimContext struct {
	p    *Platform
	sims map[string]*clusterSim

	// One-entry expanded-stream cache, keyed by the (comparable) Profile.
	cacheStreams bool
	streamProf   workload.Profile
	streamOK     bool
	streamBuf    []isa.Inst
	replay       *isa.SliceStream

	// ScalarStreams forces the timing models onto the scalar Next() path
	// by hiding the BlockStream fast path of every stream handed to the
	// core. It exists for the golden equivalence tests, which prove the
	// batched and scalar paths produce bit-identical Measurements.
	ScalarStreams bool
}

// NewSimContext returns a reusing context for p. The zero-value-like
// context used internally by Platform.RunSpan reuses nothing; a context
// from NewSimContext reuses per-cluster state and caches expanded streams.
func NewSimContext(p *Platform) *SimContext {
	return &SimContext{p: p, sims: make(map[string]*clusterSim), cacheStreams: true}
}

// Platform returns the platform this context runs on.
func (sc *SimContext) Platform() *Platform { return sc.p }

// sim returns ready-to-run simulation state for cl: Reset reused state
// when the context caches it, freshly built state otherwise.
func (sc *SimContext) sim(cl ClusterConfig) *clusterSim {
	if sc.sims != nil {
		if s, ok := sc.sims[cl.Name]; ok {
			s.hier.Reset()
			s.pred.Reset()
			return s
		}
	}
	hier := mem.NewHierarchy(cl.Hier)
	pred := branch.New(cl.Branch)
	s := &clusterSim{hier: hier, pred: pred, core: pipeline.NewCore(cl.Core, hier, pred)}
	if sc.sims != nil {
		sc.sims[cl.Name] = s
	}
	return s
}

// stream returns the instruction stream for prof. The non-caching path
// hands the generator straight to the core; the caching path expands the
// profile once into a reused buffer and replays it as a SliceStream, so
// consecutive runs of the same workload (other cluster, other frequency)
// skip regeneration entirely. Both deliver the exact sequence the
// generator produces.
func (sc *SimContext) stream(prof workload.Profile) isa.Stream {
	if !sc.cacheStreams {
		return sc.wrap(workload.NewGenerator(prof))
	}
	if !sc.streamOK || sc.streamProf != prof {
		g := workload.NewGenerator(prof)
		insts := sc.streamBuf[:0]
		for {
			insts = slices.Grow(insts, 4096)
			n := g.NextBlock(insts[len(insts):cap(insts)])
			if n == 0 {
				break
			}
			insts = insts[: len(insts)+n : cap(insts)]
		}
		sc.streamBuf = insts
		sc.replay = isa.NewSliceStream(insts)
		sc.streamProf = prof
		sc.streamOK = true
	}
	sc.replay.Reset()
	return sc.wrap(sc.replay)
}

func (sc *SimContext) wrap(s isa.Stream) isa.Stream {
	if sc.ScalarStreams {
		return scalarStream{s}
	}
	return s
}

// scalarStream hides the BlockStream fast path of the underlying stream so
// the timing models take the scalar Next fallback. Equivalence tests use
// it to drive both delivery paths over identical sequences.
type scalarStream struct{ s isa.Stream }

// Next implements isa.Stream.
func (s scalarStream) Next() (isa.Inst, bool) { return s.s.Next() }

// Run executes the workload on the named cluster at freqMHz, reusing the
// context's simulation state. See Platform.Run for the measurement
// semantics; results are bit-identical.
func (sc *SimContext) Run(prof workload.Profile, cluster string, freqMHz int) (Measurement, error) {
	return sc.RunSpan(prof, cluster, freqMHz, nil)
}

// RunSpan is Run with the simulator phases recorded as children of parent
// ("expand", "pipeline", "collate" and, on sensored platforms, "power").
// A nil parent runs untraced.
func (sc *SimContext) RunSpan(prof workload.Profile, cluster string, freqMHz int, parent *obs.Span) (Measurement, error) {
	p := sc.p
	sp := parent.Child("expand")
	cl, err := p.Cluster(cluster)
	if err != nil {
		sp.End()
		return Measurement{}, err
	}
	volt, err := cl.Voltage(freqMHz)
	if err != nil {
		sp.End()
		return Measurement{}, err
	}
	if err := prof.Validate(); err != nil {
		sp.End()
		return Measurement{}, err
	}

	s := sc.sim(cl)
	hier, pred, core := s.hier, s.pred, s.core
	ghz := float64(freqMHz) / 1000
	hier.SetFrequencyGHz(ghz)
	core.Sync = nil
	if prof.IsParallel() {
		scale := cl.ContentionScale
		if scale == 0 {
			scale = 1
		}
		core.Sync = pipeline.NewSyncModel(
			prof.Seed()^0xC0FFEE,
			prof.SnoopProb*scale, prof.BarrierWaitMean*scale, prof.StrexFailProb*scale)
	}
	stream := sc.stream(prof)
	// Arm DVFS trace replay when this context just simulated the same
	// workload on this cluster (at another frequency); otherwise record.
	// Only the reusing context traces — the transient per-run context
	// never sees a second frequency.
	replaying := false
	if sc.cacheStreams {
		if s.traceOK && s.traceProf == prof {
			replaying = hier.BeginTraceReplay(&s.trace)
		} else {
			s.traceOK = false
			hier.BeginTraceRecord(&s.trace)
		}
	}
	sp.End()

	sp = parent.Child("pipeline")
	tally := core.Run(stream)
	if sc.cacheStreams {
		if replaying {
			hier.EndTraceReplay()
		} else {
			hier.EndTraceRecord()
			if s.trace.Valid() {
				s.traceProf = prof
				s.traceOK = true
			}
		}
	}
	// Attributes are built only on traced runs; boxing them on every
	// untraced run was a measurable slice of campaign allocations.
	if sp != nil {
		sp.Annotate(obs.Uint64("cycles", tally.Cycles), obs.Uint64("insts", tally.Committed),
			obs.Float64("ipc", tally.IPC()),
			obs.Uint64("mem_stall_cycles", tally.MemStallCycles),
			obs.Uint64("branch_stall_cycles", tally.BranchStallCycles))
		sp.End()
	}

	sp = parent.Child("collate")
	sample := pmu.Capture(tally, hier, pred, ghz)
	if sp != nil {
		sp.Annotate(obs.Uint64("l1d_misses", sample.L1D.Misses()),
			obs.Uint64("l2_misses", sample.L2.Misses()))
		sp.End()
	}

	m := Measurement{
		Platform: p.cfg.Name,
		Cluster:  cluster,
		Workload: prof.Name,
		FreqMHz:  freqMHz,
		VoltageV: volt,
		Sample:   sample,
		Seconds:  sample.Seconds(),
	}

	if p.cfg.HasSensors && cl.Power != nil {
		sp = parent.Child("power")
		noise := xrand.New(prof.Seed() ^ uint64(freqMHz)<<20 ^ xrand.HashString(cluster))
		pw, temp, throttled := MeasurePower(cl.Power, cl.Thermal, &sample, volt, ghz, noise)
		m.PowerWatts = pw
		m.TemperatureC = temp
		m.Throttled = throttled
		m.EnergyJoules = pw * m.Seconds
		if sp != nil {
			sp.Annotate(obs.Float64("power_w", pw), obs.Float64("temp_c", temp),
				obs.Bool("throttled", throttled))
			sp.End()
		}
	}
	return m, nil
}
