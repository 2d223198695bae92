package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's public function. Spans of one operation share op.
type span struct {
	name       string // the layer metric's name without its "_s" suffix
	op         int
	lane       int // trace row: client or probe number
	parent     int // index into tracer.spans, -1 for an operation's root
	start, end time.Duration
}

// tracer keeps spans and per-operation layer values in memory until the
// run ends. A nil tracer records nothing, which is how the timed run and
// the untraced reference phase of the traced run are measured.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), values: map[string][]float64{}}
}

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, op, lane, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: parent, start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a finished child span from a duration the program reported
// itself (a flow step's Result.Duration), laid out from start.
func (t *tracer) add(name string, op, lane, parent int, start, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: parent, start: start, end: start + dur})
	t.mu.Unlock()
}

// startOf is the start offset of an open span, for laying out add spans.
func (t *tracer) startOf(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].start
}

// record stores one operation's value of a count or ratio layer metric.
func (t *tracer) record(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[metric] = append(t.values[metric], v)
	t.mu.Unlock()
}

// perOp sums the durations of the spans called name inside each
// operation and returns one value, in seconds, per operation that has
// any: a layer's time in an operation is all its calls there.
func (t *tracer) perOp(name string) []float64 {
	byOp := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.name == name {
			byOp[s.op] += s.end - s.start
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op].Seconds()
	}
	return out
}

// candidates renders every recorded value, and every span name as the
// per-operation time metric <name>_s: a layer's time in an operation is
// all its calls there. report keeps the ones BENCHMARK.json names.
func (t *tracer) candidates() map[string]metricValue {
	out := map[string]metricValue{}
	for name, v := range t.values {
		out[name] = distribution(v)
	}
	seen := map[string]bool{}
	for _, s := range t.spans {
		if !seen[s.name] {
			seen[s.name] = true
			out[s.name+"_s"] = distribution(t.perOp(s.name))
		}
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of it its direct children cover. coverage is
// the share of root-span time that children account for.
func (t *tracer) selfTimes() (rows []selfRow, coverage float64) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			p := t.spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				child[s.parent] += hi - lo
			}
		}
	}
	agg := map[string]*selfRow{}
	var rootTotal, rootCovered time.Duration
	for i, s := range t.spans {
		r := agg[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			agg[s.name] = r
		}
		d := s.end - s.start
		r.Calls++
		r.TotalS += d.Seconds()
		r.SelfS += (d - min(child[i], d)).Seconds()
		if s.parent < 0 && child[i] > 0 {
			rootTotal += d
			rootCovered += min(child[i], d)
		}
	}
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	if rootTotal > 0 {
		coverage = float64(rootCovered) / float64(rootTotal)
	}
	return rows, coverage
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"op": s.op, "span": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
