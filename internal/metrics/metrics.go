// Package metrics is the low-overhead, race-safe instrumentation layer
// of the rewriting engines. It records what the paper argues about
// quantitatively: where the time goes per phase (cut enumeration,
// evaluation, replacement — evaluation dominates >90% of runtime), how
// much speculative work is wasted on conflicts (the Fig. 2 signal that
// separates DACPara's split operators from the fused ICCAD'18 operator),
// how much parallelism each level of the graph exposes, and what the run
// did to the network (QoR deltas) and to the heap (allocation/GC).
//
// The design keeps the lock-free evaluation path lock-free: workers
// write only to their own cache-line-padded Shard, and shards are merged
// into the collector at phase barriers, where the engine's own
// synchronization (the barrier of galois.Team.Do) already orders the
// writes. The orchestrating goroutine alone calls the
// Collector methods. A nil *Collector is the zero-cost disabled state —
// every method is nil-receiver safe — so engines thread the collector
// unconditionally and production runs pay only a pointer test.
package metrics

import (
	"math/bits"
	"runtime"
	"time"

	"dacpara/internal/galois"
)

// Phase names one stage of a rewriting pass.
type Phase uint8

// The phases of DAG-aware rewriting. Split-operator engines (dacpara,
// the static GPU models) run the three stages as separate phases; a
// commit-only pass (the fused ICCAD'18 operator, the serial baseline)
// runs all three inside its one phase and reports under PhaseFused, with
// the per-stage breakdown coming from shard timings inside the operator.
const (
	PhaseEnumerate Phase = iota
	PhaseEvaluate
	PhaseReplace
	PhaseFused
	numPhases
)

// String returns the snapshot name of the phase.
func (p Phase) String() string {
	switch p {
	case PhaseEnumerate:
		return "enumerate"
	case PhaseEvaluate:
		return "evaluate"
	case PhaseReplace:
		return "replace"
	case PhaseFused:
		return "fused"
	}
	return "invalid"
}

// Spec is the speculative-execution counters of a galois executor: the
// raw material of the paper's Fig. 2/3 analysis, under the name the
// snapshot schema gives them.
type Spec = galois.Stats

// ConflictSample is one traced conflict: the phase a lock acquisition
// failed in and the node whose activity aborted.
type ConflictSample struct {
	Phase string `json:"phase"`
	Node  int32  `json:"node"`
}

// Shard is the per-worker slice of the instrumentation state. A shard is
// written only by its owning worker — no atomics, no locks — and read by
// the orchestrator at a phase barrier via MergeShards. The struct is
// padded to two cache lines so adjacent workers' shards never share a
// line (false sharing would put a coherence penalty on the hot path the
// collector exists to measure).
type Shard struct {
	// EnumNs, EvalNs and ReplaceNs attribute in-operator time to the
	// three logical stages; fused operators fill all three, split
	// engines leave them zero (their stage work comes with the phase
	// intervals instead).
	EnumNs, EvalNs, ReplaceNs int64
	// Evals counts evaluations performed; WastedEvals the subset whose
	// result was discarded — by an abort in a fused operator, or found
	// stale at replacement time in a split engine.
	Evals, WastedEvals int64

	limit   int32
	phase   Phase // most recent stage recorded, for conflict attribution
	samples []ConflictSample

	_ [56]byte // pad to 128 B: keep neighbouring shards off shared cache lines
}

// Conflict traces one aborted activity, keeping at most the configured
// sample budget per shard.
func (s *Shard) Conflict(p Phase, node int32) {
	if s == nil || int32(len(s.samples)) >= s.limit {
		return
	}
	s.samples = append(s.samples, ConflictSample{Phase: p.String(), Node: node})
}

type phaseAgg struct {
	wallNs    int64
	workNs    int64
	intervals int64
	evals     int64
	wasted    int64
	spec      Spec
	open      time.Time
}

// levelBuckets is the number of power-of-two buckets of the per-level
// parallelism histogram (widths up to 2^22 nodes per level and beyond).
const levelBuckets = 24

// QoR is the quality-of-result record of one run: FinishRun's argument
// and the snapshot's qor object.
type QoR struct {
	InitialAnds  int  `json:"initial_ands"`
	FinalAnds    int  `json:"final_ands"`
	InitialDelay int  `json:"initial_delay"`
	FinalDelay   int  `json:"final_delay"`
	Replacements int  `json:"replacements"`
	Attempts     int  `json:"attempts"`
	Stale        int  `json:"stale"`
	Incomplete   bool `json:"incomplete"`
}

// Collector accumulates one engine run's instrumentation. Method calls
// (StartRun, PhaseStart/PhaseEnd, Interval, ObserveLevel, MergeShards,
// FinishRun, Snapshot) must come from the single orchestrating goroutine; workers
// touch only their own Shard. The zero collector is ready to use; a nil
// collector is the disabled state (Nop).
type Collector struct {
	engine  string
	workers int
	passes  int

	start    time.Time
	wall     time.Duration
	startMem runtime.MemStats
	endMem   runtime.MemStats

	phases  [numPhases]phaseAgg
	levels  [levelBuckets]levelAgg
	spec    Spec
	qor     QoR
	samples []ConflictSample

	// conflictLimit is the per-shard conflict sample budget (0: tracing
	// off).
	conflictLimit int32

	shards []Shard
}

type levelAgg struct {
	levels int64
	nodes  int64
}

// Nop is the disabled collector: nil, so every recording call reduces to
// a nil test. It exists as a named value so call sites and overhead
// tests can say what they mean.
var Nop *Collector

// New returns an enabled collector.
func New() *Collector { return &Collector{} }

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// TraceConflicts sets the per-worker conflict sample budget (n <= 0
// disables tracing). Call before StartRun.
func (c *Collector) TraceConflicts(n int) {
	if c == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	c.conflictLimit = int32(n)
}

// StartRun resets the collector for a fresh engine run and records the
// baseline heap statistics. Engines call it on entry, so a collector
// reused across flow steps yields one snapshot per step.
func (c *Collector) StartRun(engine string, workers, passes int) {
	if c == nil {
		return
	}
	limit := c.conflictLimit
	*c = Collector{engine: engine, workers: workers, passes: passes, conflictLimit: limit}
	c.start = time.Now()
	runtime.ReadMemStats(&c.startMem)
}

// Shards returns n per-worker shards (index by the executor's 1-based
// worker tag, or 0 for a serial engine). The slice is reused across
// passes; MergeShards drains it. Returns nil on a nil collector, which
// engines use as the "metrics off" fast-path test.
func (c *Collector) Shards(n int) []Shard {
	if c == nil {
		return nil
	}
	if cap(c.shards) < n {
		c.shards = make([]Shard, n)
		for i := range c.shards {
			c.shards[i].limit = c.conflictLimit
		}
	}
	return c.shards[:n]
}

// MergeShards folds the worker shards into the collector and zeroes
// them. Call at a phase barrier: the engine's own join (galois.Team.Do)
// must already order the workers' shard writes before this.
func (c *Collector) MergeShards(shards []Shard) {
	if c == nil {
		return
	}
	for i := range shards {
		s := &shards[i]
		c.phases[PhaseEnumerate].workNs += s.EnumNs
		c.phases[PhaseEvaluate].workNs += s.EvalNs
		c.phases[PhaseReplace].workNs += s.ReplaceNs
		c.phases[PhaseEvaluate].evals += s.Evals
		c.phases[PhaseEvaluate].wasted += s.WastedEvals
		if len(s.samples) > 0 {
			c.samples = append(c.samples, s.samples...)
		}
		limit := s.limit
		samples := s.samples[:0]
		*s = Shard{limit: limit, samples: samples}
	}
}

// PhaseStart opens a timed interval of phase p.
func (c *Collector) PhaseStart(p Phase) {
	if c == nil {
		return
	}
	c.phases[p].open = time.Now()
}

// PhaseEnd closes the interval opened by PhaseStart and attributes the
// executor counter delta accumulated during it to the phase.
func (c *Collector) PhaseEnd(p Phase, delta Spec) {
	if c == nil {
		return
	}
	agg := &c.phases[p]
	var wall time.Duration
	if !agg.open.IsZero() {
		wall = time.Since(agg.open)
		agg.open = time.Time{}
	}
	c.Interval(p, wall, delta)
}

// Interval books one barrier-to-barrier execution of phase p whose wall
// time the caller measured itself — the lock-free sweep, which runs two
// phases between one pair of barriers and divides its wall between them.
func (c *Collector) Interval(p Phase, wall time.Duration, delta Spec) {
	if c == nil {
		return
	}
	agg := &c.phases[p]
	agg.wallNs += wall.Nanoseconds()
	agg.intervals++
	// Committed plus wasted time is the phase's summed per-worker work:
	// the executor times every activity, the sweep every chunk.
	agg.workNs += delta.CommittedNs + delta.WastedNs
	agg.spec.Add(delta)
	c.spec.Add(delta)
}

// ObserveLevel records the width of one level worklist — the available
// parallelism of the paper's nodeDividing step — into a power-of-two
// histogram.
func (c *Collector) ObserveLevel(width int) {
	if c == nil || width <= 0 {
		return
	}
	b := bits.Len(uint(width)) - 1 // floor(log2(width))
	if b >= levelBuckets {
		b = levelBuckets - 1
	}
	c.levels[b].levels++
	c.levels[b].nodes += int64(width)
}

// FinishRun records the run's QoR deltas and the closing wall clock and
// heap statistics. Call exactly once, after the final MergeShards.
func (c *Collector) FinishRun(q QoR) {
	if c == nil {
		return
	}
	c.qor = q
	c.wall = time.Since(c.start)
	runtime.ReadMemStats(&c.endMem)
}
