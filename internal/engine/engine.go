// Package engine is the shared divide-and-conquer pass pipeline of this
// repository: one level-partitioning/worklist implementation with
// pluggable partition policies, one three-phase executor skeleton
// (enumerate → lock-free evaluate → commit-with-revalidation)
// parameterized by per-pass hooks, and one spine for the worker team
// (started once per run, see galois.Team), metrics shards, context
// cancellation checkpoints, fault-plan wiring and retry budgets.
//
// Every optimization pass in the repository runs through it:
//
//   - the DACPara rewriting engine (Dynamic mode: per-level worklists, a
//     speculative executor per phase, lock-free evaluation, revalidated
//     replacement — the paper's Algorithm 1);
//   - the DAC'22/TCAD'23 static GPU models (Static mode: each phase is a
//     whole-graph barrier sweep against the original graph, followed by a
//     serial conditional commit);
//   - the ICCAD'18 fused-lock baseline (Fused mode: one speculative
//     operator per node doing all three stages under one lock set);
//   - the ABC serial baseline (Serial mode: one thread, immediate
//     commits, stride-polled cancellation);
//   - refactoring and resubstitution (Dynamic mode with SkipEnumerate
//     and SerialCommit: lock-free parallel candidate search per level,
//     serial commit that revalidates every stored candidate on the
//     latest graph).
//
// The framework owns the loop structure, the Result assembly, the phase
// clocks and shard merges, and the attempt/replacement/stale accounting;
// a pass supplies only the per-node work through the Pass or FusedPass
// hooks.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/galois"
	"dacpara/internal/metrics"
)

// Locker tries to take the calling activity's lock on a node, reporting
// false on conflict. A nil Locker means the caller runs serially and
// needs no locks.
type Locker func(id int32) bool

// Policy partitions a network into ordered worklists — the paper's
// nodeDividing step. See ByLevel and Flat.
type Policy func(a *aig.AIG) [][]int32

// Mode selects the executor skeleton a plan runs under.
type Mode int

const (
	// Dynamic is DACPara's skeleton: per worklist, the three phases run
	// back to back under a speculative executor, so every decision sees
	// dynamic global information (barriers between phases make the
	// lock-free evaluation safe).
	Dynamic Mode = iota
	// Static is the GPU models' skeleton: each phase is one barrier
	// sweep over ALL worklists against the static input graph, then a
	// serial conditional commit applies the stored decisions.
	Static
	// Fused is the ICCAD'18 skeleton: one speculative operator per node
	// performs every stage under one lock set (used with FusedPass).
	Fused
	// Serial is the single-threaded skeleton: one sweep, immediate
	// commits, cancellation polled every SerialCancelStride nodes (used
	// with FusedPass).
	Serial
)

// Status is the verdict of one commit (or fused operator) invocation.
type Status int

const (
	// StatusSkip: the node needed no work (no candidate, not an AND).
	StatusSkip Status = iota
	// StatusCommitted: the graph was updated.
	StatusCommitted
	// StatusNoGain: the candidate revalidated but no longer pays.
	StatusNoGain
	// StatusStale: the stored information was outdated on the latest
	// graph — the (cheap) work a split-operator conflict throws away.
	StatusStale
	// StatusConflict: a lock could not be taken; the activity aborts and
	// the executor retries it.
	StatusConflict
)

// Env hands a pass the spine resources it may account against: the
// per-worker metrics shards (nil when metrics are off), the shared
// attempt counter (fused/serial passes count their own attempts; the
// three-phase modes count attempts from Stored), and the per-worker-slot
// cut-storage pools. Pools are created once per engine run and survive
// the pass loop, so later passes enumerate into already-warm free lists.
type Env struct {
	Shards   []metrics.Shard
	Attempts *atomic.Int64
	CutPools []*cut.Pool
}

// CutPool returns the worker slot's cut-storage pool, or nil when the
// spine provided none (a nil pool degrades to plain allocation).
func (e Env) CutPool(worker int) *cut.Pool {
	if worker >= 0 && worker < len(e.CutPools) {
		return e.CutPools[worker]
	}
	return nil
}

// Pass is the per-pass hook set of a three-phase divide-and-conquer
// pass (Dynamic and Static modes). Begin is called once per pass, before
// partitioning, with the worker-slot count (Dynamic: workers+1, tags are
// 1-based with slot 0 reserved for the serial commit; Static: workers,
// 0-based, slot 0 commits).
type Pass interface {
	Begin(slots int, env Env)
	// Enumerate prepares one node (cut sets, windows); false reports a
	// lock conflict (the framework records it and retries the node).
	Enumerate(worker int, id int32, lock Locker) bool
	// Evaluate computes and stores the node's best candidate against the
	// immutable graph, lock-free; true counts one evaluation.
	Evaluate(worker int, id int32) bool
	// Stored reports whether the node holds a stored candidate.
	Stored(id int32) bool
	// Commit revalidates the stored candidate on the latest graph and
	// applies it. The framework already holds the node's lock when lock
	// is non-nil.
	Commit(worker int, id int32, lock Locker) Status
}

// FusedPass handles one node end to end — the Fused and Serial modes.
type FusedPass interface {
	Begin(slots int, env Env)
	Fuse(worker int, id int32, lock Locker) Status
}

// Plan describes how a pass is driven.
type Plan struct {
	// Name is the engine name reported in Result, StartRun and errors.
	Name string
	// ErrName overrides the error-message prefix (default Name).
	ErrName string
	// Partition is the worklist policy (ByLevel, Flat, or custom).
	Partition Policy
	// Mode selects the executor skeleton.
	Mode Mode
	// SkipEnumerate drops the enumeration phase (passes whose evaluation
	// builds its own windows, like refactor and resub).
	SkipEnumerate bool
	// SerialCommit runs the commit phase serially on slot 0 instead of
	// under the speculative executor — for passes whose replacements are
	// not lock-safe and rely on commit-time revalidation instead.
	SerialCommit bool
}

func (p Plan) errName() string {
	if p.ErrName != "" {
		return p.ErrName
	}
	return p.Name
}

// Exec carries the spine knobs shared by every pass: parallelism, pass
// count, fault injection, retry budget and the metrics collector.
type Exec struct {
	// Workers sets the parallelism (0: runtime.GOMAXPROCS).
	Workers int
	// Passes repeats the whole sweep (0: one pass).
	Passes int
	// Fault injects seeded faults into the speculative executor.
	Fault *galois.FaultPlan
	// RetryBudget bounds consecutive aborts per work item.
	RetryBudget int
	// Metrics, when non-nil, collects the run's instrumentation.
	Metrics *metrics.Collector
}

func (e Exec) workers() int {
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

func (e Exec) passes() int {
	if e.Passes <= 0 {
		return 1
	}
	return e.Passes
}

// executor returns the run's speculative executor: one, on the run's
// team, with a lock table that grows with the network.
func (e Exec) executor(a *aig.AIG, team *galois.Team) *galois.Executor {
	ex := galois.NewExecutor(a.Capacity()+1, team)
	ex.Fault = e.Fault
	ex.RetryBudget = e.RetryBudget
	return ex
}

// SerialCancelStride is how many nodes Serial mode processes between
// context polls: coarse enough to keep the hot loop cheap, fine enough
// that cancellation lands within a few hundred node visits.
const SerialCancelStride = 256

// Run drives a three-phase pass under the plan's skeleton (Dynamic or
// Static). A non-nil error (cancellation, retry-budget exhaustion,
// fault injection) leaves the network structurally consistent but only
// partially optimized; the Result covers the work done and is marked
// Incomplete.
func Run(ctx context.Context, a *aig.AIG, pass Pass, plan Plan, e Exec) (Result, error) {
	switch plan.Mode {
	case Dynamic:
		return runDynamic(ctx, a, pass, plan, e)
	case Static:
		return runStatic(ctx, a, pass, plan, e)
	}
	return Result{}, fmt.Errorf("engine: plan %q: mode %d is not a three-phase mode", plan.Name, plan.Mode)
}

// RunFused drives a fused pass under the plan's skeleton (Fused or
// Serial).
func RunFused(ctx context.Context, a *aig.AIG, pass FusedPass, plan Plan, e Exec) (Result, error) {
	switch plan.Mode {
	case Fused:
		return runFused(ctx, a, pass, plan, e)
	case Serial:
		return runSerial(ctx, a, pass, plan, e)
	}
	return Result{}, fmt.Errorf("engine: plan %q: mode %d is not a fused mode", plan.Name, plan.Mode)
}

// runDynamic is the paper's Algorithm 1: per worklist, enumerate →
// lock-free evaluate → commit, each phase under the speculative executor
// (or a serial revalidating commit when the plan asks for one).
func runDynamic(ctx context.Context, a *aig.AIG, pass Pass, plan Plan, e Exec) (Result, error) {
	start := time.Now()
	workers := e.workers()
	passes := e.passes()
	res := Result{
		Engine:       plan.Name,
		Threads:      workers,
		Passes:       passes,
		InitialAnds:  a.NumAnds(),
		InitialDelay: a.Delay(),
	}
	m := e.Metrics
	m.StartRun(plan.Name, workers, passes)
	shards := m.Shards(workers + 1) // nil when metrics are off
	var attempts atomic.Int64
	tallies := make([]tally, workers+1)
	env := Env{Shards: shards, Attempts: &attempts, CutPools: cut.NewPools(workers + 1)}
	// One team and one executor, lock table included, serve every phase
	// of every level of every pass.
	team := galois.NewTeam(workers)
	defer team.Close()
	ex := e.executor(a, team)
	// runPhase brackets one executor run with the phase clock and
	// attributes the executor counter movement to that phase.
	var specBase metrics.Spec
	runPhase := func(ph metrics.Phase, wl []int32, op galois.Operator) error {
		m.PhaseStart(ph)
		err := ex.RunCtx(ctx, wl, op)
		cur := metrics.SpecOf(&ex.Stats)
		m.PhaseEnd(ph, cur.Sub(specBase))
		specBase = cur
		return err
	}
	var runErr error
	for p := 0; p < passes && runErr == nil; p++ {
		pass.Begin(workers+1, env)
		worklists := plan.Partition(a)

		enumOp := func(gc *galois.Ctx, id int32) error {
			if !gc.Acquire(id) {
				if shards != nil {
					shards[gc.Worker()].Conflict(metrics.PhaseEnumerate, id)
				}
				return galois.ErrConflict
			}
			if !pass.Enumerate(gc.Worker(), id, gc.Acquire) {
				if shards != nil {
					shards[gc.Worker()].Conflict(metrics.PhaseEnumerate, id)
				}
				return galois.ErrConflict
			}
			return nil
		}
		evalOp := func(gc *galois.Ctx, id int32) error {
			// Completely lock-free: stage barriers guarantee the graph is
			// immutable while evaluation runs.
			if pass.Evaluate(gc.Worker(), id) {
				if shards != nil {
					shards[gc.Worker()].Evals++
				}
			}
			return nil
		}
		repOp := func(gc *galois.Ctx, id int32) error {
			if !pass.Stored(id) {
				return nil
			}
			if !gc.Acquire(id) {
				if shards != nil {
					shards[gc.Worker()].Conflict(metrics.PhaseReplace, id)
				}
				return galois.ErrConflict
			}
			switch pass.Commit(gc.Worker(), id, gc.Acquire) {
			case StatusConflict:
				if shards != nil {
					shards[gc.Worker()].Conflict(metrics.PhaseReplace, id)
				}
				return galois.ErrConflict
			case StatusCommitted:
				tallies[gc.Worker()].replacements++
			case StatusStale:
				// The stored evaluation was outdated on the latest graph:
				// that evaluation is the (cheap) work a split-operator
				// conflict throws away.
				tallies[gc.Worker()].stale++
				if shards != nil {
					shards[gc.Worker()].WastedEvals++
				}
			}
			return nil
		}

		for _, wl := range worklists {
			if len(wl) == 0 {
				continue
			}
			// The level boundary is the cancellation point of Algorithm 1:
			// between levels no activity is in flight, so stopping here
			// abandons no speculative work.
			if err := ctx.Err(); err != nil {
				runErr = fmt.Errorf("%s: %w", plan.errName(), err)
				break
			}
			m.ObserveLevel(len(wl))
			if !plan.SkipEnumerate {
				if err := runPhase(metrics.PhaseEnumerate, wl, enumOp); err != nil {
					runErr = fmt.Errorf("%s: enumeration stage: %w", plan.errName(), err)
					break
				}
			}
			if err := runPhase(metrics.PhaseEvaluate, wl, evalOp); err != nil {
				runErr = fmt.Errorf("%s: evaluation stage: %w", plan.errName(), err)
				break
			}
			for _, id := range wl {
				if pass.Stored(id) {
					attempts.Add(1)
				}
			}
			if plan.SerialCommit {
				m.PhaseStart(metrics.PhaseReplace)
				for _, id := range wl {
					if !pass.Stored(id) {
						continue
					}
					switch pass.Commit(0, id, nil) {
					case StatusCommitted:
						tallies[0].replacements++
					case StatusStale:
						tallies[0].stale++
						if shards != nil {
							shards[0].WastedEvals++
						}
					}
				}
				m.PhaseEnd(metrics.PhaseReplace, metrics.Spec{})
			} else if err := runPhase(metrics.PhaseReplace, wl, repOp); err != nil {
				runErr = fmt.Errorf("%s: replacement stage: %w", plan.errName(), err)
				break
			}
			// The team's barrier above ordered every shard write; fold
			// the per-worker counters in while the workers are quiescent.
			m.MergeShards(shards)
		}
		m.MergeShards(shards)
	}
	res.absorb(&ex.Stats)
	res.count(&attempts, tallies)
	res.finish(a, start, m, runErr)
	return res, runErr
}

// runStatic is the GPU models' skeleton: parallel enumeration and
// evaluation as whole-graph barrier sweeps against the unchanging input
// graph, then serial conditional commits in topological order.
func runStatic(ctx context.Context, a *aig.AIG, pass Pass, plan Plan, e Exec) (Result, error) {
	start := time.Now()
	workers := e.workers()
	passes := e.passes()
	res := Result{
		Engine:       plan.Name,
		Threads:      workers,
		Passes:       passes,
		InitialAnds:  a.NumAnds(),
		InitialDelay: a.Delay(),
	}
	m := e.Metrics
	m.StartRun(plan.Name, workers, passes)
	shards := m.Shards(workers) // nil when metrics are off
	var attempts atomic.Int64
	tallies := make([]tally, 1) // slot 0 commits
	env := Env{Shards: shards, Attempts: &attempts, CutPools: cut.NewPools(workers)}
	team := galois.NewTeam(workers)
	defer team.Close()
	var runErr error
	// levelCancelled polls the context at a level boundary and records
	// the wrapped error once.
	levelCancelled := func() bool {
		if runErr != nil {
			return true
		}
		if err := ctx.Err(); err != nil {
			runErr = fmt.Errorf("%s: %w", plan.errName(), err)
			return true
		}
		return false
	}
	for p := 0; p < passes && runErr == nil; p++ {
		pass.Begin(workers, env)
		worklists := plan.Partition(a)

		// Parallel enumeration level by level: the graph is static, and
		// the barrier between levels means each node's fanin state is
		// complete and immutable when the node is processed — no locks,
		// as on the GPU.
		m.PhaseStart(metrics.PhaseEnumerate)
		for _, wl := range worklists {
			if levelCancelled() {
				break
			}
			m.ObserveLevel(len(wl))
			if err := parallelFor(team, wl, func(w int, id int32) {
				pass.Enumerate(w, id, nil)
			}); err != nil {
				runErr = fmt.Errorf("%s: enumeration stage: %w", plan.errName(), err)
			}
		}
		m.PhaseEnd(metrics.PhaseEnumerate, metrics.Spec{})

		// Parallel evaluation of every node against the static graph.
		m.PhaseStart(metrics.PhaseEvaluate)
		for _, wl := range worklists {
			if levelCancelled() {
				break
			}
			if err := parallelFor(team, wl, func(w int, id int32) {
				if pass.Evaluate(w, id) {
					if shards != nil {
						shards[w].Evals++
					}
				}
			}); err != nil {
				runErr = fmt.Errorf("%s: evaluation stage: %w", plan.errName(), err)
			}
		}
		m.PhaseEnd(metrics.PhaseEvaluate, metrics.Spec{})

		// Serial conditional commit on the CPU, in topological order (as
		// DAC'22 does). Stored decisions came from static global
		// information, so realized gains may be zero or negative.
		m.PhaseStart(metrics.PhaseReplace)
		for _, wl := range worklists {
			if levelCancelled() {
				break
			}
			for _, id := range wl {
				if !pass.Stored(id) {
					continue
				}
				attempts.Add(1)
				switch pass.Commit(0, id, nil) {
				case StatusCommitted:
					tallies[0].replacements++
				case StatusStale:
					tallies[0].stale++
					if shards != nil {
						shards[0].WastedEvals++
					}
				}
			}
		}
		m.PhaseEnd(metrics.PhaseReplace, metrics.Spec{})
		// parallelFor's barrier ordered the shard writes of the sweeps
		// above.
		m.MergeShards(shards)
	}
	res.count(&attempts, tallies)
	res.finish(a, start, m, runErr)
	return res, runErr
}

// runFused is the ICCAD'18 skeleton: every node is one speculative
// activity doing all stages back to back under one lock set.
func runFused(ctx context.Context, a *aig.AIG, pass FusedPass, plan Plan, e Exec) (Result, error) {
	start := time.Now()
	workers := e.workers()
	passes := e.passes()
	res := Result{
		Engine:       plan.Name,
		Threads:      workers,
		Passes:       passes,
		InitialAnds:  a.NumAnds(),
		InitialDelay: a.Delay(),
	}
	m := e.Metrics
	m.StartRun(plan.Name, workers, passes)
	shards := m.Shards(workers + 1) // nil when metrics are off
	var attempts atomic.Int64
	tallies := make([]tally, workers+1)
	env := Env{Shards: shards, Attempts: &attempts, CutPools: cut.NewPools(workers + 1)}
	team := galois.NewTeam(workers)
	defer team.Close()
	ex := e.executor(a, team)
	var specBase metrics.Spec
	var runErr error
	for p := 0; p < passes && runErr == nil; p++ {
		pass.Begin(workers+1, env)
		worklists := plan.Partition(a)
		op := func(gc *galois.Ctx, id int32) error {
			switch pass.Fuse(gc.Worker(), id, gc.Acquire) {
			case StatusConflict:
				return galois.ErrConflict
			case StatusCommitted:
				tallies[gc.Worker()].replacements++
			case StatusStale:
				tallies[gc.Worker()].stale++
			}
			return nil
		}
		for _, wl := range worklists {
			m.PhaseStart(metrics.PhaseFused)
			err := ex.RunCtx(ctx, wl, op)
			cur := metrics.SpecOf(&ex.Stats)
			m.PhaseEnd(metrics.PhaseFused, cur.Sub(specBase))
			specBase = cur
			if err != nil {
				runErr = fmt.Errorf("%s: fused operator: %w", plan.errName(), err)
				break
			}
		}
		m.MergeShards(shards)
	}
	res.absorb(&ex.Stats)
	res.count(&attempts, tallies)
	res.finish(a, start, m, runErr)
	return res, runErr
}

// runSerial is the single-threaded skeleton: one worker, immediate
// commits, cancellation polled every SerialCancelStride nodes.
func runSerial(ctx context.Context, a *aig.AIG, pass FusedPass, plan Plan, e Exec) (Result, error) {
	start := time.Now()
	passes := e.passes()
	res := Result{
		Engine:       plan.Name,
		Threads:      1,
		Passes:       passes,
		InitialAnds:  a.NumAnds(),
		InitialDelay: a.Delay(),
	}
	m := e.Metrics
	m.StartRun(plan.Name, 1, passes)
	// One shard: the serial skeleton has no barriers, so its per-phase
	// breakdown is the in-loop stage time the pass accumulates there.
	shards := m.Shards(1)
	var attempts atomic.Int64
	tallies := make([]tally, 1)
	env := Env{Shards: shards, Attempts: &attempts, CutPools: cut.NewPools(1)}
	var runErr error
	for p := 0; p < passes && runErr == nil; p++ {
		pass.Begin(1, env)
		for _, wl := range plan.Partition(a) {
			for i, id := range wl {
				if i%SerialCancelStride == 0 && ctx.Err() != nil {
					runErr = fmt.Errorf("%s: %w", plan.errName(), ctx.Err())
					break
				}
				switch pass.Fuse(0, id, nil) {
				case StatusCommitted:
					tallies[0].replacements++
				case StatusStale:
					tallies[0].stale++
				}
			}
			if runErr != nil {
				break
			}
		}
	}
	m.MergeShards(shards)
	res.count(&attempts, tallies)
	res.finish(a, start, m, runErr)
	return res, runErr
}

// parallelFor runs fn over the items on the team, with a barrier at the
// end (the Static mode's GPU-kernel model). Worker slots are 0-based. A
// panic in fn comes back as a *galois.PanicError.
func parallelFor(team *galois.Team, items []int32, fn func(worker int, id int32)) error {
	workers, cursor := team.Split(len(items))
	return team.Do(workers, func(worker int) {
		for lo, hi, ok := cursor.Next(); ok; lo, hi, ok = cursor.Next() {
			for _, id := range items[lo:hi] {
				fn(worker-1, id)
			}
		}
	})
}
