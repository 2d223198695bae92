package metrics

import (
	"fmt"
	"io"
	"time"
)

// SchemaMetrics identifies the snapshot JSON schema; bump the suffix on
// any incompatible change so downstream tooling can dispatch.
const SchemaMetrics = "dacpara-metrics/v1"

// Snapshot is the machine-readable record of one engine run — the unit
// the -stats-json flag, the per-step flow reports and the daemon's
// per-job metrics endpoint all emit.
type Snapshot struct {
	Schema  string `json:"schema"`
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	Passes  int    `json:"passes"`
	WallNs  int64  `json:"wall_ns"`

	// Phases reports only the phases the engine exercised (split passes:
	// enumerate/evaluate/replace; the commit-only ones — the fused
	// ICCAD'18 operator, the serial baseline — fused, plus the per-stage
	// work_ns breakdown recorded inside their operator).
	Phases []PhaseSnapshot `json:"phases"`

	// Levels is the width histogram of the plan's worklists: per level
	// for the nodeDividing partition, one entry for a plan that takes the
	// whole graph as one list.
	Levels []LevelBucket `json:"level_histogram,omitempty"`

	// Speculation totals the executor counters across all phases. For a
	// split-operator engine the wasted share stays near zero even under
	// contention; for the fused operator it grows with the abort rate —
	// the paper's Fig. 2 contrast, directly readable from one run.
	Speculation Spec `json:"speculation"`

	// ConflictSamples lists traced aborts (bounded per worker; enable
	// with Collector.TraceConflicts).
	ConflictSamples []ConflictSample `json:"conflict_samples,omitempty"`

	Memory MemSnapshot `json:"memory"`
	QoR    QoR         `json:"qor"`
}

// PhaseSnapshot aggregates one phase across all passes and levels.
type PhaseSnapshot struct {
	Name string `json:"name"`
	// WallNs is elapsed time between the phase's barriers (all workers),
	// summed over intervals; zero for a stage that only exists inside a
	// commit-only pass's operator.
	WallNs int64 `json:"wall_ns"`
	// WorkNs sums per-worker in-operator time attributed to the phase.
	WorkNs int64 `json:"work_ns"`
	// Intervals counts barrier-to-barrier executions (for dacpara: one
	// per level per pass).
	Intervals int64 `json:"intervals"`
	// Evals and WastedEvals count evaluations performed in the phase and
	// the subset whose result was thrown away (aborted or stale).
	Evals       int64 `json:"evals,omitempty"`
	WastedEvals int64 `json:"wasted_evals,omitempty"`
	// Speculation is the executor counter delta attributed to the phase.
	Speculation Spec `json:"speculation"`
}

// LevelBucket is one power-of-two bucket of the parallelism histogram:
// levels whose worklist width w satisfies MinWidth <= w < 2*MinWidth.
type LevelBucket struct {
	MinWidth int   `json:"min_width"`
	Levels   int64 `json:"levels"`
	Nodes    int64 `json:"nodes"`
}

// MemSnapshot is the heap delta of the run (runtime.ReadMemStats before
// and after).
type MemSnapshot struct {
	AllocBytes   int64 `json:"alloc_bytes"`
	Mallocs      int64 `json:"mallocs"`
	NumGC        int64 `json:"num_gc"`
	PauseTotalNs int64 `json:"gc_pause_total_ns"`
	HeapInuseEnd int64 `json:"heap_inuse_end"`
}

// Snapshot renders the collector's current state. Call after FinishRun;
// a nil collector yields nil.
func (c *Collector) Snapshot() *Snapshot {
	if c == nil {
		return nil
	}
	s := &Snapshot{
		Schema:      SchemaMetrics,
		Engine:      c.engine,
		Workers:     c.workers,
		Passes:      c.passes,
		WallNs:      c.wall.Nanoseconds(),
		Speculation: c.spec,
		Memory: MemSnapshot{
			AllocBytes:   int64(c.endMem.TotalAlloc - c.startMem.TotalAlloc),
			Mallocs:      int64(c.endMem.Mallocs - c.startMem.Mallocs),
			NumGC:        int64(c.endMem.NumGC - c.startMem.NumGC),
			PauseTotalNs: int64(c.endMem.PauseTotalNs - c.startMem.PauseTotalNs),
			HeapInuseEnd: int64(c.endMem.HeapInuse),
		},
		QoR: c.qor,
	}
	for p := Phase(0); p < numPhases; p++ {
		agg := &c.phases[p]
		if agg.intervals == 0 && agg.workNs == 0 && agg.evals == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseSnapshot{
			Name:        p.String(),
			WallNs:      agg.wallNs,
			WorkNs:      agg.workNs,
			Intervals:   agg.intervals,
			Evals:       agg.evals,
			WastedEvals: agg.wasted,
			Speculation: agg.spec,
		})
	}
	for b := range c.levels {
		if c.levels[b].levels == 0 {
			continue
		}
		s.Levels = append(s.Levels, LevelBucket{
			MinWidth: 1 << b,
			Levels:   c.levels[b].levels,
			Nodes:    c.levels[b].nodes,
		})
	}
	if len(c.samples) > 0 {
		s.ConflictSamples = append([]ConflictSample(nil), c.samples...)
	}
	return s
}

// Format writes a human-readable multi-line summary (the -stats view).
func (s *Snapshot) Format(w io.Writer) {
	fmt.Fprintf(w, "metrics: engine=%s workers=%d passes=%d wall=%s\n",
		s.Engine, s.Workers, s.Passes, time.Duration(s.WallNs).Round(time.Microsecond))
	for _, p := range s.Phases {
		fmt.Fprintf(w, "  phase %-9s wall=%-12s work=%-12s intervals=%d",
			p.Name,
			time.Duration(p.WallNs).Round(time.Microsecond),
			time.Duration(p.WorkNs).Round(time.Microsecond),
			p.Intervals)
		if p.Evals > 0 {
			fmt.Fprintf(w, " evals=%d wasted=%d", p.Evals, p.WastedEvals)
		}
		if p.Speculation.Aborts > 0 || p.Speculation.Commits > 0 {
			fmt.Fprintf(w, " commits=%d aborts=%d", p.Speculation.Commits, p.Speculation.Aborts)
		}
		fmt.Fprintln(w)
	}
	sp := s.Speculation
	fmt.Fprintf(w, "  speculation: commits=%d aborts=%d (injected %d) locks=%d lock-failures=%d wasted-work=%.2f%%\n",
		sp.Commits, sp.Aborts, sp.InjectedAborts, sp.LocksTaken, sp.LockFailures, 100*sp.WastedFraction())
	if len(s.Levels) > 0 {
		fmt.Fprintf(w, "  levels:")
		for _, b := range s.Levels {
			fmt.Fprintf(w, " [%d+]=%d/%d", b.MinWidth, b.Levels, b.Nodes)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  memory: alloc=%dB mallocs=%d gc=%d pause=%s\n",
		s.Memory.AllocBytes, s.Memory.Mallocs, s.Memory.NumGC,
		time.Duration(s.Memory.PauseTotalNs).Round(time.Microsecond))
	q := s.QoR
	fmt.Fprintf(w, "  qor: ands %d -> %d, delay %d -> %d, replacements=%d attempts=%d stale=%d\n",
		q.InitialAnds, q.FinalAnds, q.InitialDelay, q.FinalDelay, q.Replacements, q.Attempts, q.Stale)
	if len(s.ConflictSamples) > 0 {
		fmt.Fprintf(w, "  conflict samples (%d):", len(s.ConflictSamples))
		for i, cs := range s.ConflictSamples {
			if i == 16 {
				fmt.Fprintf(w, " ...")
				break
			}
			fmt.Fprintf(w, " %s@%d", cs.Phase, cs.Node)
		}
		fmt.Fprintln(w)
	}
}
