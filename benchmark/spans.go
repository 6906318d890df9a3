package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gemstone"
)

// span is one recorded trace span, from either an in-process tracer or a
// Chrome trace served over HTTP. Proc 0 is the local process; spans
// imported from remote workers carry another Proc.
type span struct {
	Name   string
	Proc   int
	Lane   int
	Start  time.Duration
	Dur    time.Duration
	Attrs  map[string]any
	parent int // index of the innermost enclosing span on the lane; -1 for roots
}

func (s *span) end() time.Duration { return s.Start + s.Dur }

func (s *span) str(key string) string {
	v, _ := s.Attrs[key].(string)
	return v
}

func (s *span) num(key string) float64 {
	switch v := s.Attrs[key].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	case int:
		return float64(v)
	}
	return 0
}

// spanTree holds a trace's spans with each span's parent resolved: the
// innermost span on the same process lane whose interval contains it.
type spanTree struct {
	spans []span
}

// treeFromTracer snapshots an in-process tracer.
func treeFromTracer(t *gemstone.Tracer) *spanTree {
	evs := t.Events()
	spans := make([]span, len(evs))
	for i, e := range evs {
		attrs := make(map[string]any, len(e.Attrs))
		for _, a := range e.Attrs {
			attrs[a.Key] = a.Value
		}
		spans[i] = span{Name: e.Name, Proc: e.Proc, Lane: e.Lane, Start: e.Start, Dur: e.Dur, Attrs: attrs}
	}
	return newSpanTree(spans)
}

// treeFromChrome parses a Chrome trace-event JSON document (the format
// of GET /v1/campaigns/{id}/trace). Process 1 is the serving process.
func treeFromChrome(r io.Reader) (*spanTree, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode chrome trace: %w", err)
	}
	var spans []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans = append(spans, span{
			Name:  e.Name,
			Proc:  e.Pid - 1,
			Lane:  e.Tid,
			Start: time.Duration(e.Ts * float64(time.Microsecond)),
			Dur:   time.Duration(e.Dur * float64(time.Microsecond)),
			Attrs: e.Args,
		})
	}
	return newSpanTree(spans), nil
}

func newSpanTree(spans []span) *spanTree {
	// Parents sort before their children: by start, then longest first.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Dur > spans[j].Dur
	})
	type laneKey struct{ proc, lane int }
	stacks := map[laneKey][]int{}
	for i := range spans {
		k := laneKey{spans[i].Proc, spans[i].Lane}
		st := stacks[k]
		for len(st) > 0 && spans[st[len(st)-1]].end() < spans[i].end() {
			st = st[:len(st)-1]
		}
		spans[i].parent = -1
		if len(st) > 0 {
			spans[i].parent = st[len(st)-1]
		}
		stacks[k] = append(st, i)
	}
	return &spanTree{spans: spans}
}

// total sums the durations of every local span named name, in seconds.
func (t *spanTree) total(name string) float64 {
	var d time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Proc == 0 {
			d += s.Dur
		}
	}
	return d.Seconds()
}

// each calls fn for every local span named name.
func (t *spanTree) each(name string, fn func(i int, s *span)) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Proc == 0 {
			fn(i, s)
		}
	}
}

// runKey splits a span's "workload/cluster@freqMHz" key attribute.
func runKey(s *span) (workloadName, cluster string) {
	k := s.str("key")
	at := strings.LastIndexByte(k, '@')
	if at < 0 {
		return k, ""
	}
	slash := strings.LastIndexByte(k[:at], '/')
	if slash < 0 {
		return k[:at], ""
	}
	return k[:slash], k[slash+1 : at]
}

// collectLayers is the per-layer breakdown of local campaigns
// (core.Collect) recorded in one trace: the campaign engine's scheduling
// and cache use, and the simulator phases nested under its jobs.
type collectLayers struct {
	CollectWall float64 // Σ collect span durations, s
	Plan        float64 // s
	Simulate    float64 // s
	CacheGet    float64 // s
	CachePut    float64 // s
	Gets, Hits  int
	Busy        float64 // Σ worker time in cache-get/simulate/cache-put, worker-s
	Budget      float64 // Σ over campaigns of workers × campaign wall, worker-s
	SweepSplits int
	Switches    int

	Expand, Pipeline, Collate, Power, Anchor, Predict float64 // s

	InstsByCluster map[string]float64
	PipeByCluster  map[string]float64 // s
	RecordRuns     int
	RecordPipe     float64 // s
	ReplayRuns     int
	ReplayPipe     float64 // s
}

// collectBreakdown derives collectLayers from a trace of one or more
// local campaigns. Worker root spans are attributed to the campaign whose
// interval contains them; jobs to the worker lane they ran on.
func collectBreakdown(t *spanTree) collectLayers {
	l := collectLayers{InstsByCluster: map[string]float64{}, PipeByCluster: map[string]float64{}}
	l.Plan = t.total("plan")
	l.Simulate = t.total("simulate")
	l.CacheGet = t.total("cache-get")
	l.CachePut = t.total("cache-put")
	l.Expand = t.total("expand")
	l.Pipeline = t.total("pipeline")
	l.Collate = t.total("collate")
	l.Power = t.total("power")
	l.Anchor = t.total("anchor")
	l.Predict = t.total("predict")
	t.each("cache-get", func(_ int, s *span) {
		l.Gets++
		if hit, _ := s.Attrs["hit"].(bool); hit {
			l.Hits++
		}
	})

	var collects []*span
	t.each("collect", func(_ int, s *span) {
		collects = append(collects, s)
		l.CollectWall += s.Dur.Seconds()
	})
	workersOf := make([]int, len(collects))
	sweepLanes := make([]map[string]map[int]bool, len(collects))
	t.each("worker", func(wi int, w *span) {
		for ci, c := range collects {
			if w.Start >= c.Start && w.end() <= c.end() {
				workersOf[ci]++
				if sweepLanes[ci] == nil {
					sweepLanes[ci] = map[string]map[int]bool{}
				}
				l.workerLane(t, wi, sweepLanes[ci])
				break
			}
		}
	})
	for ci, c := range collects {
		l.Budget += float64(workersOf[ci]) * c.Dur.Seconds()
		for _, lanes := range sweepLanes[ci] {
			if len(lanes) > 1 {
				l.SweepSplits++
			}
		}
	}
	return l
}

// workerLane folds one worker's jobs into l: busy time, workload
// switches between consecutive simulated jobs, the lanes each
// (workload, cluster) sweep ran on, and the pipeline time of runs that
// recorded a DVFS trace versus runs that replayed one (a run replays
// when the lane's previous run on the same cluster had the same
// workload).
func (l *collectLayers) workerLane(t *spanTree, wi int, sweeps map[string]map[int]bool) {
	w := &t.spans[wi]
	last := map[string]string{} // cluster → workload of the lane's previous run
	prevWorkload := ""
	for i := wi + 1; i < len(t.spans) && t.spans[i].Start < w.end(); i++ {
		s := &t.spans[i]
		if s.parent != wi {
			continue
		}
		switch s.Name {
		case "cache-get", "cache-put":
			l.Busy += s.Dur.Seconds()
		case "simulate":
			l.Busy += s.Dur.Seconds()
			wl, cl := runKey(s)
			if prevWorkload != "" && wl != prevWorkload {
				l.Switches++
			}
			prevWorkload = wl
			sk := wl + "/" + cl
			if sweeps[sk] == nil {
				sweeps[sk] = map[int]bool{}
			}
			sweeps[sk][wi] = true
			replay := last[cl] == wl
			last[cl] = wl
			for j := i + 1; j < len(t.spans) && t.spans[j].Start < s.end(); j++ {
				p := &t.spans[j]
				if p.parent != i || p.Name != "pipeline" {
					continue
				}
				l.InstsByCluster[cl] += p.num("insts")
				l.PipeByCluster[cl] += p.Dur.Seconds()
				if replay {
					l.ReplayRuns++
					l.ReplayPipe += p.Dur.Seconds()
				} else {
					l.RecordRuns++
					l.RecordPipe += p.Dur.Seconds()
				}
			}
		}
	}
}

// mips is simulated instructions per host second, in millions.
func mips(insts, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return insts / seconds / 1e6
}

// meanMS is total seconds over n, in milliseconds (0 when n is 0).
func meanMS(totalS float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return totalS / float64(n) * 1e3
}
