package core

import (
	"fmt"
	"sort"

	"gemstone/internal/power"
	"gemstone/internal/stats"
)

// ScalingPoint is one point of Fig. 8: performance, power and energy at
// one operating point, normalised to the baseline (A7 @ 200 MHz).
type ScalingPoint struct {
	Cluster string
	FreqMHz int
	// Perf is baseline_time / time (higher is faster).
	Perf float64
	// Power is estimated power / baseline estimated power.
	Power float64
	// Energy is estimated energy / baseline estimated energy.
	Energy float64
}

// ScalingCurve is one platform's mean curve plus per-workload-cluster
// curves.
type ScalingCurve struct {
	Platform string
	Mean     []ScalingPoint
	// ByCluster holds the curve of each workload-cluster label.
	ByCluster map[int][]ScalingPoint
}

// ScalingAnalysis computes the Fig. 8 curves for one run set. Power comes
// from applying the per-cluster power models to the set's own event data
// (PMC rates for hardware, mapped gem5 statistics for models), so hardware
// and model curves are produced by identical machinery.
func ScalingAnalysis(rs *RunSet, models map[string]*power.Model, mapping power.Mapping,
	isGem5 bool, labels map[string]int, baseCluster string, baseFreq int) (*ScalingCurve, error) {

	type agg struct {
		time, power float64
		n           int
	}
	// Collect per (cluster,freq,label) and per (cluster,freq) means of
	// per-workload normalised values. Normalisation is per workload: each
	// workload's time/power at the operating point relative to its own
	// baseline run.
	baseline := map[string]platformRun{} // workload -> baseline run data
	type opKey struct {
		cluster string
		freq    int
	}
	perOp := map[opKey][]string{}
	runData := map[RunKey]platformRun{}

	for _, key := range rs.sortedKeys() {
		m := rs.Runs[key]
		model, ok := models[key.Cluster]
		if !ok {
			return nil, fmt.Errorf("core: no power model for cluster %s", key.Cluster)
		}
		var obs power.Observation
		if isGem5 {
			var err error
			obs, err = mapping.ObservationFromGem5(key.Workload, key.Cluster, key.FreqMHz, m.VoltageV, Gem5Stats(m))
			if err != nil {
				return nil, err
			}
		} else {
			obs = PowerObservation(m)
		}
		pr := platformRun{seconds: m.Seconds, power: model.Estimate(&obs)}
		runData[key] = pr
		if key.Cluster == baseCluster && key.FreqMHz == baseFreq {
			baseline[key.Workload] = pr
		}
		perOp[opKey{key.Cluster, key.FreqMHz}] = append(perOp[opKey{key.Cluster, key.FreqMHz}], key.Workload)
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("core: run set %s has no baseline runs (%s @ %d MHz)", rs.Platform, baseCluster, baseFreq)
	}

	curve := &ScalingCurve{Platform: rs.Platform, ByCluster: map[int][]ScalingPoint{}}
	var ops []opKey
	for op := range perOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].cluster != ops[j].cluster {
			return ops[i].cluster < ops[j].cluster
		}
		return ops[i].freq < ops[j].freq
	})

	for _, op := range ops {
		var perfAll, powAll, enAll []float64
		byLabel := map[int][3][]float64{}
		for _, w := range perOp[op] {
			base, ok := baseline[w]
			if !ok {
				continue
			}
			r := runData[RunKey{Workload: w, Cluster: op.cluster, FreqMHz: op.freq}]
			perf := base.seconds / r.seconds
			pow := r.power / base.power
			en := (r.power * r.seconds) / (base.power * base.seconds)
			perfAll = append(perfAll, perf)
			powAll = append(powAll, pow)
			enAll = append(enAll, en)
			l := labels[w]
			cur := byLabel[l]
			cur[0] = append(cur[0], perf)
			cur[1] = append(cur[1], pow)
			cur[2] = append(cur[2], en)
			byLabel[l] = cur
		}
		if len(perfAll) == 0 {
			continue
		}
		curve.Mean = append(curve.Mean, ScalingPoint{
			Cluster: op.cluster, FreqMHz: op.freq,
			Perf: stats.Mean(perfAll), Power: stats.Mean(powAll), Energy: stats.Mean(enAll),
		})
		for l, tri := range byLabel {
			curve.ByCluster[l] = append(curve.ByCluster[l], ScalingPoint{
				Cluster: op.cluster, FreqMHz: op.freq,
				Perf: stats.Mean(tri[0]), Power: stats.Mean(tri[1]), Energy: stats.Mean(tri[2]),
			})
		}
	}
	return curve, nil
}

type platformRun struct {
	seconds float64
	power   float64
}

// SpeedupStats summarises the per-workload-cluster spread of a ratio
// between two operating points (Section VI's A15 1800-vs-600 speedup).
type SpeedupStats struct {
	Mean, Min, Max     float64
	MinLabel, MaxLabel int
}

// RatioMetric selects the quantity whose lo/hi-frequency ratio
// ClusterRatio summarises.
type RatioMetric int

const (
	// MetricSpeedup is time(lo) / time(hi) — how much faster the high
	// frequency runs.
	MetricSpeedup RatioMetric = iota
	// MetricEnergyIncrease is energy(hi) / energy(lo) — what the speedup
	// costs.
	MetricEnergyIncrease
)

func (m RatioMetric) apply(lo, hi platformRun) float64 {
	if m == MetricEnergyIncrease {
		return (hi.power * hi.seconds) / (lo.power * lo.seconds)
	}
	return lo.seconds / hi.seconds
}

// ClusterRatio computes, per workload-cluster, the mean ratio of the
// chosen metric between two frequencies on one cluster, then summarises
// the spread — Section VI's A15 speedup and energy-increase analysis.
func ClusterRatio(rs *RunSet, cluster string, loFreq, hiFreq int,
	labels map[string]int, metric RatioMetric,
	models map[string]*power.Model, mapping power.Mapping, isGem5 bool) (SpeedupStats, error) {

	model, ok := models[cluster]
	if !ok {
		return SpeedupStats{}, fmt.Errorf("core: no power model for cluster %s", cluster)
	}
	get := func(w string, f int) (platformRun, bool) {
		m, ok := rs.Runs[RunKey{Workload: w, Cluster: cluster, FreqMHz: f}]
		if !ok {
			return platformRun{}, false
		}
		var obs power.Observation
		if isGem5 {
			var err error
			obs, err = mapping.ObservationFromGem5(w, cluster, f, m.VoltageV, Gem5Stats(m))
			if err != nil {
				return platformRun{}, false
			}
		} else {
			obs = PowerObservation(m)
		}
		return platformRun{seconds: m.Seconds, power: model.Estimate(&obs)}, true
	}

	perLabel := map[int][]float64{}
	for _, key := range rs.sortedKeys() {
		if key.Cluster != cluster || key.FreqMHz != loFreq {
			continue
		}
		lo, ok1 := get(key.Workload, loFreq)
		hi, ok2 := get(key.Workload, hiFreq)
		if !ok1 || !ok2 {
			continue
		}
		l := labels[key.Workload]
		perLabel[l] = append(perLabel[l], metric.apply(lo, hi))
	}
	if len(perLabel) == 0 {
		return SpeedupStats{}, fmt.Errorf("core: no runs for %s at %d/%d MHz", cluster, loFreq, hiFreq)
	}
	out := SpeedupStats{Min: 1e300, Max: -1e300}
	labelsSeen := make([]int, 0, len(perLabel))
	for l := range perLabel {
		labelsSeen = append(labelsSeen, l)
	}
	sort.Ints(labelsSeen)
	var all []float64
	for _, l := range labelsSeen {
		vals := perLabel[l]
		m := stats.Mean(vals)
		all = append(all, vals...)
		if m < out.Min {
			out.Min, out.MinLabel = m, l
		}
		if m > out.Max {
			out.Max, out.MaxLabel = m, l
		}
	}
	out.Mean = stats.Mean(all)
	return out, nil
}
