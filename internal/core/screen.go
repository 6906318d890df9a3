package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"gemstone/internal/platform"
	"gemstone/internal/stats"
	"gemstone/internal/workload"
)

// Screen-then-resimulate campaigns. A full detailed validation campaign
// spends almost all of its time on operating points whose model error is
// unremarkable. Screen mode inverts the cost structure: it first sweeps
// the whole grid on *both* platforms at the atomic tier (an order of
// magnitude cheaper per run), flags the interesting points — the largest
// |percent error| between model and reference, plus robust-statistics
// outliers of the error distribution — and re-simulates only the flagged
// points at the detailed tier. The result is a pair of mixed-fidelity run
// sets in which every measurement carries its tier in
// Measurement.Fidelity, so downstream analyses and ledgers know exactly
// which numbers are pinned and which are predictions.

// ScreenOptions configures a screen-then-resimulate campaign.
type ScreenOptions struct {
	// Options scopes the underlying campaigns (workloads, clusters,
	// frequencies, cache, observer, tracer). Options.Fidelity is ignored:
	// the screening pass forces FidelityAtomic, the re-simulation pass
	// FidelityDetailed.
	Options CollectOptions
	// TopK flags the K points with the largest |percent error| of
	// execution time between the two platforms. 0 means ScreenDefaultTopK;
	// negative flags none (outliers only).
	TopK int
	// OutlierZ additionally flags every point whose signed percent error
	// has a robust z-score (median/MAD) above this threshold. 0 means
	// ScreenDefaultOutlierZ; negative disables outlier flagging.
	OutlierZ float64
	// Collect, when non-nil, replaces the local campaign runner — the
	// service layer injects the distributed coordinator here. Every
	// sub-campaign of the screen (two atomic sweeps, then the detailed
	// re-simulations) goes through it.
	Collect func(ctx context.Context, pl *platform.Platform, opt CollectOptions) (*RunSet, error)
}

// Screen-mode defaults.
const (
	ScreenDefaultTopK     = 8
	ScreenDefaultOutlierZ = 3.5
)

// ScreenResult is the outcome of a screen-then-resimulate campaign.
type ScreenResult struct {
	// HW and Sim are the mixed-fidelity run sets: atomic-tier predictions
	// everywhere except the flagged points, which hold detailed
	// measurements. Per-run provenance is in Measurement.Fidelity.
	HW, Sim *RunSet
	// Flagged lists the re-simulated points, sorted by descending
	// |percent error| as screened.
	Flagged []RunKey
	// ScreenedPE maps every screened point to the signed percent error of
	// the model's execution time against the reference, as measured at the
	// atomic tier.
	ScreenedPE map[RunKey]float64
}

// Screen runs a screen-then-resimulate campaign: both platforms at the
// atomic tier over the full grid, error screening, then detailed
// re-simulation of the flagged points on both platforms. hwPl is the
// reference platform, simPl the model under validation.
func Screen(ctx context.Context, hwPl, simPl *platform.Platform, opt ScreenOptions) (*ScreenResult, error) {
	collect := opt.Collect
	if collect == nil {
		collect = func(ctx context.Context, pl *platform.Platform, o CollectOptions) (*RunSet, error) {
			return Collect(ctx, pl, o)
		}
	}
	topK := opt.TopK
	if topK == 0 {
		topK = ScreenDefaultTopK
	}
	outlierZ := opt.OutlierZ
	if outlierZ == 0 {
		outlierZ = ScreenDefaultOutlierZ
	}

	// Phase 1: atomic sweeps of the full grid on both platforms. The
	// options are filled against the reference platform up front so both
	// platforms sweep the identical grid and phase 3 can resolve flagged
	// workload names back to profiles.
	atomicOpt := opt.Options
	atomicOpt.Fidelity = platform.FidelityAtomic
	if err := atomicOpt.fill(hwPl); err != nil {
		return nil, err
	}
	if atomicOpt.Name != "" {
		atomicOpt.Name = opt.Options.Name + "#screen"
	}
	hwRuns, err := collect(ctx, hwPl, atomicOpt)
	if err != nil {
		return nil, fmt.Errorf("core: screen pass on %s: %w", hwPl.Name(), err)
	}
	simRuns, err := collect(ctx, simPl, atomicOpt)
	if err != nil {
		return nil, fmt.Errorf("core: screen pass on %s: %w", simPl.Name(), err)
	}

	// Phase 2: screen. Signed percent error of the model's execution time
	// per operating point, then top-K by magnitude union robust outliers.
	keys := make([]RunKey, 0, len(hwRuns.Runs))
	for k := range hwRuns.Runs {
		if _, ok := simRuns.Runs[k]; ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, compareRunKeys)
	pes := make(map[RunKey]float64, len(keys))
	ordered := make([]float64, len(keys))
	for i, k := range keys {
		pe := stats.PercentError(hwRuns.Runs[k].Seconds, simRuns.Runs[k].Seconds)
		pes[k] = pe
		ordered[i] = pe
	}

	flagged := map[RunKey]bool{}
	byMag := append([]RunKey(nil), keys...)
	sort.SliceStable(byMag, func(i, j int) bool {
		return math.Abs(pes[byMag[i]]) > math.Abs(pes[byMag[j]])
	})
	for i := 0; i < topK && i < len(byMag); i++ {
		flagged[byMag[i]] = true
	}
	if outlierZ > 0 && len(keys) > 0 {
		for i, z := range stats.RobustZ(ordered) {
			if z > outlierZ {
				flagged[keys[i]] = true
			}
		}
	}
	result := &ScreenResult{HW: hwRuns, Sim: simRuns, ScreenedPE: pes}
	for _, k := range byMag {
		if flagged[k] {
			result.Flagged = append(result.Flagged, k)
		}
	}
	if len(result.Flagged) == 0 {
		return result, nil
	}

	// Phase 3: re-simulate the flagged points detailed on both platforms
	// and merge. Flagged points are grouped per (workload, cluster) so one
	// sub-campaign sweeps all flagged frequencies of a workload — the
	// grouping keeps the campaign grid-shaped (Collect options describe a
	// cross product) without re-running anything that was not flagged.
	profiles := map[string]workload.Profile{}
	for _, prof := range atomicOpt.Workloads {
		profiles[prof.Name] = prof
	}
	type group struct {
		prof  workload.Profile
		freqs map[string][]int
	}
	groups := map[string]*group{}
	var groupOrder []string
	for _, k := range result.Flagged {
		prof, ok := profiles[k.Workload]
		if !ok {
			return nil, fmt.Errorf("core: screen flagged unknown workload %q", k.Workload)
		}
		g := groups[k.Workload]
		if g == nil {
			g = &group{prof: prof, freqs: map[string][]int{}}
			groups[k.Workload] = g
			groupOrder = append(groupOrder, k.Workload)
		}
		g.freqs[k.Cluster] = append(g.freqs[k.Cluster], k.FreqMHz)
	}
	for gi, name := range groupOrder {
		g := groups[name]
		detOpt := opt.Options
		detOpt.Fidelity = platform.FidelityDetailed
		detOpt.Workloads = []workload.Profile{g.prof}
		detOpt.Clusters = nil
		detOpt.Freqs = map[string][]int{}
		for cl, fs := range g.freqs {
			sort.Ints(fs)
			detOpt.Clusters = append(detOpt.Clusters, cl)
			detOpt.Freqs[cl] = fs
		}
		sort.Strings(detOpt.Clusters)
		if detOpt.Name != "" {
			detOpt.Name = fmt.Sprintf("%s#resim-%d", opt.Options.Name, gi)
		}
		for _, pair := range []struct {
			pl *platform.Platform
			rs *RunSet
		}{{hwPl, hwRuns}, {simPl, simRuns}} {
			det, err := collect(ctx, pair.pl, detOpt)
			if err != nil {
				return nil, fmt.Errorf("core: re-simulating flagged %s on %s: %w", name, pair.pl.Name(), err)
			}
			for k, m := range det.Runs {
				pair.rs.Runs[k] = m
			}
		}
	}
	return result, nil
}
