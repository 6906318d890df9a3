package obs

import (
	"sort"
	"time"
)

// Wire forms for distributed tracing. A coordinator ships a TraceContext
// with every remote job; the worker records SpanRecords against its own
// clock and returns them with the result; the coordinator imports them
// into the campaign tracer via Tracer.ImportProcess, adjusting for the
// clock offset it estimates from the exchange timestamps. Every type here
// is flat, concretely typed data — no interfaces, no pointers — so
// encoding/gob round-trips it without registration and tolerates fields
// that one side does not know about.

// TraceContext is the correlation identity a job carries across the
// wire: which campaign and tenant own it, the job's content-addressed ID,
// and the coordinator-side span it was dispatched under. The zero value
// means "anonymous and untraced". Correlation and recording are separate
// concerns: a job may carry IDs purely so remote log lines can be
// attributed (Correlated) without asking the worker to build and return
// spans (Recording).
type TraceContext struct {
	// Campaign names the owning campaign (the coordinator's campaign
	// name, e.g. "c-000042/hw").
	Campaign string
	// Tenant is the submitting tenant, when the campaign has one.
	Tenant string
	// Job is the content-addressed job ID (the run-cache key).
	Job string
	// Parent names the coordinator-side span the job was dispatched
	// under, so a merged trace can be read back to its dispatch site.
	Parent string
	// Record asks the remote side to record spans and return them with
	// the result. Correlation IDs may be set without it: then the worker
	// tags its log lines but pays nothing on the span path.
	Record bool
}

// Correlated reports whether the context carries any identity worth
// logging.
func (tc TraceContext) Correlated() bool {
	return tc.Campaign != "" || tc.Tenant != "" || tc.Job != ""
}

// Recording reports whether the remote side should record spans.
func (tc TraceContext) Recording() bool { return tc.Record }

// AttrRecord is the wire form of one span attribute. Attr carries its
// value as `any`, which gob cannot transport without per-type
// registration; the record flattens the four concrete kinds the Attr
// constructors produce into tagged fields instead.
type AttrRecord struct {
	// Key is the attribute key.
	Key string
	// Kind discriminates which value field is live.
	Kind AttrKind
	// Str, Int, Float and Bool carry the value for the matching kind.
	Str   string
	Int   int64
	Float float64
	Bool  bool
}

// AttrKind discriminates AttrRecord values.
type AttrKind uint8

// AttrRecord value kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// recordAttr flattens one Attr into its wire form. Unknown dynamic types
// (impossible via the constructors) degrade to the string form.
func recordAttr(a Attr) AttrRecord {
	switch v := a.Value.(type) {
	case string:
		return AttrRecord{Key: a.Key, Kind: AttrString, Str: v}
	case int64:
		return AttrRecord{Key: a.Key, Kind: AttrInt, Int: v}
	case float64:
		return AttrRecord{Key: a.Key, Kind: AttrFloat, Float: v}
	case bool:
		return AttrRecord{Key: a.Key, Kind: AttrBool, Bool: v}
	}
	return AttrRecord{Key: a.Key, Kind: AttrString, Str: "?"}
}

// Attr rebuilds the in-memory attribute.
func (r AttrRecord) Attr() Attr {
	switch r.Kind {
	case AttrInt:
		return Attr{Key: r.Key, Value: r.Int}
	case AttrFloat:
		return Attr{Key: r.Key, Value: r.Float}
	case AttrBool:
		return Attr{Key: r.Key, Value: r.Bool}
	}
	return Attr{Key: r.Key, Value: r.Str}
}

// SpanRecord is the wire form of one completed span, timed against the
// recording process's own clock (absolute unix nanoseconds, not a tracer
// epoch — the two sides do not share one). Lane is relative to the batch:
// a single-threaded recorder emits everything on lane 0 and the importer
// re-lanes the whole batch together.
type SpanRecord struct {
	// Name is the span name.
	Name string
	// Lane is the batch-relative lane.
	Lane int
	// StartUnixNano is the span start on the recorder's clock.
	StartUnixNano int64
	// DurNanos is the span duration.
	DurNanos int64
	// Attrs carries the span annotations in wire form.
	Attrs []AttrRecord
}

// NewSpanRecord builds one wire-form span from absolute times, the shape
// a remote worker records without carrying a Tracer.
func NewSpanRecord(name string, start time.Time, end time.Time, attrs ...Attr) SpanRecord {
	rec := SpanRecord{
		Name:          name,
		StartUnixNano: start.UnixNano(),
		DurNanos:      int64(end.Sub(start)),
	}
	if rec.DurNanos < 0 {
		rec.DurNanos = 0
	}
	if len(attrs) > 0 {
		rec.Attrs = make([]AttrRecord, len(attrs))
		for i, a := range attrs {
			rec.Attrs[i] = recordAttr(a)
		}
	}
	return rec
}

// Export snapshots every recorded span in wire form, with absolute times
// (epoch + offset). A nil tracer exports nothing.
func (t *Tracer) Export() []SpanRecord {
	if t == nil {
		return nil
	}
	events := t.Events()
	out := make([]SpanRecord, len(events))
	for i, ev := range events {
		rec := SpanRecord{
			Name:          ev.Name,
			Lane:          ev.Lane,
			StartUnixNano: t.epoch.Add(ev.Start).UnixNano(),
			DurNanos:      int64(ev.Dur),
		}
		if len(ev.Attrs) > 0 {
			rec.Attrs = make([]AttrRecord, len(ev.Attrs))
			for j, a := range ev.Attrs {
				rec.Attrs[j] = recordAttr(a)
			}
		}
		out[i] = rec
	}
	return out
}

// ImportProcess merges a batch of remote spans into the trace as process
// proc (same name, same Chrome pid across batches). offset is the
// estimated remote-minus-local clock skew: remote timestamps are shifted
// by -offset onto the local clock. lo/hi, when non-zero, bound the batch
// to the local observation window (for a remote job: the dispatch
// request/response interval) — after skew adjustment every span is
// clamped inside it, so an offset estimate error can never make a worker
// span leak outside the dispatch span that provably contains it. Within
// the batch all spans shift uniformly, so their relative nesting is
// preserved exactly.
//
// Lanes are allocated per process: a batch occupies its recorder-relative
// lanes shifted to the lowest base where every lane's previous batch has
// ended, so concurrent jobs from one worker render side by side while
// sequential jobs share a lane. A nil tracer ignores the call.
func (t *Tracer) ImportProcess(proc string, recs []SpanRecord, offset time.Duration, lo, hi time.Time) {
	if t == nil || len(recs) == 0 {
		return
	}
	type placed struct {
		rec        SpanRecord
		start, end time.Duration // relative to the tracer epoch, clamped
	}
	batch := make([]placed, 0, len(recs))
	var batchStart, batchEnd time.Duration
	width := 1
	for _, rec := range recs {
		start := time.Unix(0, rec.StartUnixNano).Add(-offset)
		end := start.Add(time.Duration(rec.DurNanos))
		if !lo.IsZero() {
			if start.Before(lo) {
				start = lo
			}
			if end.Before(start) {
				end = start
			}
		}
		if !hi.IsZero() {
			if end.After(hi) {
				end = hi
			}
			if start.After(end) {
				start = end
			}
		}
		p := placed{rec: rec, start: start.Sub(t.epoch), end: end.Sub(t.epoch)}
		if len(batch) == 0 || p.start < batchStart {
			batchStart = p.start
		}
		if len(batch) == 0 || p.end > batchEnd {
			batchEnd = p.end
		}
		if rec.Lane+1 > width {
			width = rec.Lane + 1
		}
		batch = append(batch, p)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.procs == nil {
		t.procs = make(map[string]*traceProc)
	}
	tp, ok := t.procs[proc]
	if !ok {
		// Remote pids start at 2; pid 1 is the local process.
		tp = &traceProc{id: len(t.procs) + 2}
		t.procs[proc] = tp
	}
	// Lowest base lane where all `width` lanes are free by batchStart.
	base := 0
	for ; base+width <= len(tp.laneEnd); base++ {
		fits := true
		for k := 0; k < width; k++ {
			if tp.laneEnd[base+k] > batchStart {
				fits = false
				break
			}
		}
		if fits {
			break
		}
	}
	for len(tp.laneEnd) < base+width {
		tp.laneEnd = append(tp.laneEnd, 0)
	}
	for k := 0; k < width; k++ {
		if batchEnd > tp.laneEnd[base+k] {
			tp.laneEnd[base+k] = batchEnd
		}
	}
	for _, p := range batch {
		t.events = append(t.events, Event{
			Name:  p.rec.Name,
			Lane:  base + p.rec.Lane,
			Proc:  tp.id,
			Start: p.start,
			Dur:   p.end - p.start,
			Attrs: attrsFromRecords(p.rec.Attrs),
		})
	}
}

func attrsFromRecords(recs []AttrRecord) []Attr {
	if len(recs) == 0 {
		return nil
	}
	out := make([]Attr, len(recs))
	for i, r := range recs {
		out[i] = r.Attr()
	}
	return out
}

// procNames snapshots the imported process names by pid.
func (t *Tracer) procNames() map[int]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.procs) == 0 {
		return nil
	}
	out := make(map[int]string, len(t.procs))
	for name, tp := range t.procs {
		out[tp.id] = name
	}
	return out
}

// sortedPids returns the metadata pids in stable order.
func sortedPids(names map[int]string) []int {
	pids := make([]int, 0, len(names))
	for pid := range names {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}
