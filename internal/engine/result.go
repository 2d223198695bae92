package engine

import (
	"sync/atomic"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/galois"
	"dacpara/internal/metrics"
)

// Result reports one pass-engine run. Every pass in the repository —
// rewriting, refactoring, resubstitution — returns this shape, so flow
// steps and the service speak one result type.
type Result struct {
	Engine  string
	Threads int
	Passes  int

	InitialAnds, FinalAnds   int
	InitialDelay, FinalDelay int32

	// Replacements is the number of committed graph updates; Attempts the
	// number of nodes with a positive-gain candidate; Stale the attempts
	// whose stored information was outdated on the latest AIG (skipped or
	// re-validated per the paper's Section 4.4).
	Replacements, Attempts, Stale int

	// Commits and Aborts are the speculative-execution counters of the
	// Galois substrate: the activities of the commit phase (replace or
	// fused) under the executor, and nothing else — the lock-free sweep
	// has no activities, and a serial commit none either. InjectedAborts
	// counts the subset forced by a FaultPlan.
	Commits, Aborts, InjectedAborts int64

	// Incomplete marks a run that stopped early because the executor
	// returned an error (retry budget exhausted, fault injection). The
	// counters cover only the work done up to that point, and the network
	// holds a partially optimized — but structurally consistent — state.
	Incomplete bool

	// CommittedWork and WastedWork are the total time spent inside
	// committed and aborted activities: the paper's Fig. 2 signal. A
	// fused operator (ICCAD'18) wastes its whole evaluation on conflict;
	// DACPara's split operators waste almost nothing. The chunk time of
	// the lock-free sweep, which cannot abort, counts as committed.
	CommittedWork, WastedWork time.Duration

	Duration time.Duration

	// Metrics is the instrumentation snapshot of the run, present only
	// when a metrics collector was supplied.
	Metrics *metrics.Snapshot
}

// absorb takes the run's speculative counters from its executor, which
// lives as long as the run: call it once, after the pass loop.
func (r *Result) absorb(st *galois.Stats) {
	r.Commits = st.Commits
	r.Aborts = st.Aborts
	r.InjectedAborts = st.InjectedAborts
	r.CommittedWork = time.Duration(st.CommittedNs)
	r.WastedWork = time.Duration(st.WastedNs)
}

// tally is one worker slot's share of the commit verdicts and of the
// current sweep's chunk time: plain counters, written only by the worker
// the slot belongs to and read when the team is quiescent. Padded to a
// cache line.
type tally struct {
	replacements, stale int64
	enumNs, evalNs      int64
	_                   [32]byte
}

// count stamps the attempt, replacement and stale totals.
func (r *Result) count(attempts *atomic.Int64, tallies []tally) {
	r.Attempts = int(attempts.Load())
	for i := range tallies {
		r.Replacements += int(tallies[i].replacements)
		r.Stale += int(tallies[i].stale)
	}
}

// finish stamps the post-run QoR, duration and completeness, then — with
// a collector — records the QoR, closes the metrics run and attaches the
// snapshot. The framework calls it last, after the final shard merge.
func (r *Result) finish(a *aig.AIG, start time.Time, m *metrics.Collector, runErr error) {
	r.FinalAnds = a.NumAnds()
	r.FinalDelay = a.Delay()
	r.Duration = time.Since(start)
	r.Incomplete = runErr != nil
	if m == nil {
		return
	}
	m.FinishRun(metrics.QoR{
		InitialAnds:  r.InitialAnds,
		FinalAnds:    r.FinalAnds,
		InitialDelay: int(r.InitialDelay),
		FinalDelay:   int(r.FinalDelay),
		Replacements: r.Replacements,
		Attempts:     r.Attempts,
		Stale:        r.Stale,
		Incomplete:   r.Incomplete,
	})
	r.Metrics = m.Snapshot()
}

// WastedFraction returns the share of speculative work that was thrown
// away because of lock conflicts.
func (r Result) WastedFraction() float64 {
	total := r.CommittedWork + r.WastedWork
	if total == 0 {
		return 0
	}
	return float64(r.WastedWork) / float64(total)
}

// AreaReduction returns the number of AND gates removed, the paper's
// quality metric ("Area Reduction" columns).
func (r Result) AreaReduction() int { return r.InitialAnds - r.FinalAnds }
