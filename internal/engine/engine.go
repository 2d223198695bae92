// Package engine is the shared divide-and-conquer pass pipeline of this
// repository: one worklist partitioner with pluggable policies, one loop
// — per worklist: enumerate → lock-free evaluate → commit — whose phases
// are chosen by what the pass can do, and one spine for the worker team
// (started once per run, see galois.Team), metrics shards, context
// cancellation checkpoints, fault-plan wiring and retry budgets.
//
// Every optimization pass in the repository runs through Run, and every
// engine of the paper's comparison is a case of its loop (Algorithm 1):
//
//   - DACPara: all three phases per level worklist, each under the
//     speculative executor, evaluation lock-free between barriers;
//   - the DAC'22/TCAD'23 static GPU models: the same three phases over
//     ONE worklist — the whole graph in level order — with a serial
//     commit, so every decision is taken on the unchanged input graph;
//   - the ICCAD'18 fused-lock baseline: the commit phase alone, the pass
//     doing all three stages inside it under one lock set;
//   - the ABC serial baseline, serial refactoring and resubstitution:
//     the commit phase alone, serially — one thread, immediate commits;
//   - parallel refactoring and resubstitution: lock-free evaluation per
//     level, then a serial commit that revalidates every stored
//     candidate on the latest graph.
//
// The framework owns the loop, the Result assembly, the phase clocks and
// shard merges, and the attempt/replacement/stale accounting; a pass
// supplies only the per-node work.
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
// needs no locks. It is the cut manager's visitor type, so a pass hands
// its lock straight to enumeration.
type Locker = cut.Visitor

// Policy partitions a network into ordered worklists — the paper's
// nodeDividing step. See ByLevel, LevelOrder, Flat and Topo.
type Policy func(a *aig.AIG) [][]int32

// Status is the verdict of one commit invocation.
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
// attempt counter (a pass that does not implement Evaluator counts its
// own attempts; otherwise the framework counts the Stored nodes), and
// the per-worker-slot cut-storage pools. Pools are created once per
// engine run and survive the pass loop, so later passes enumerate into
// already-warm free lists.
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

// Pass is what every pass implements. Begin is called once per pass,
// before partitioning, with the worker-slot count: always workers+1.
// The executor's workers carry the tags 1..workers; slot 0 belongs to
// the serial commit. A hook indexes its per-worker state by the worker
// argument and nothing else.
//
// A pass that is only a Pass does all of a node's work in Commit (the
// fused and serial operators). Implementing Evaluator and Enumerator as
// well splits that work into the phases of Algorithm 1.
type Pass interface {
	Begin(slots int, env Env)
	// Commit applies the node's candidate — for an Evaluator, after
	// revalidating the stored one on the latest graph. When lock is
	// non-nil the framework already holds the node's own lock.
	Commit(worker int, id int32, lock Locker) Status
}

// Evaluator gives each worklist a lock-free evaluation phase before its
// commit phase, and restricts the commit phase to the nodes that came
// out of it with a stored candidate.
type Evaluator interface {
	// Evaluate computes and stores the node's best candidate against the
	// immutable graph, lock-free; true counts one evaluation.
	Evaluate(worker int, id int32) bool
	// Stored reports whether the node holds a stored candidate.
	Stored(id int32) bool
}

// Enumerator gives each worklist an enumeration phase ahead of the
// others.
type Enumerator interface {
	// Enumerate prepares one node (cut sets, windows); false reports a
	// lock conflict (the framework records it and retries the node).
	Enumerate(worker int, id int32, lock Locker) bool
}

// Plan describes how a pass is driven.
type Plan struct {
	// Name is the engine name reported in Result, StartRun and errors.
	Name string
	// Partition is the worklist policy.
	Partition Policy
	// SerialCommit runs the commit phase serially on slot 0 instead of
	// under the speculative executor — for passes whose replacements are
	// not lock-safe and rely on commit-time revalidation instead, and for
	// the serial baselines. A plan whose only phase is a serial commit
	// runs on one worker whatever Exec.Workers says.
	SerialCommit bool
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

// SerialCancelStride is how many nodes a serial commit sweep processes
// between context polls: coarse enough to keep the hot loop cheap, fine
// enough that cancellation lands within a few hundred node visits.
const SerialCancelStride = 256

// Run drives a pass over the network: for each pass, for each worklist
// of the plan's partition, the enumeration phase (if the pass is an
// Enumerator), the lock-free evaluation phase (if it is an Evaluator)
// and the commit phase, under the speculative executor or — the commit,
// when the plan says so — serially. The worklist boundary is the
// cancellation point of Algorithm 1: between worklists no activity is in
// flight, so stopping there abandons no speculative work; the executor
// also stops between activities, and a serial sweep polls every
// SerialCancelStride nodes. A non-nil error (cancellation, retry-budget
// exhaustion, fault injection, a panicking hook as *galois.PanicError)
// leaves the network structurally consistent but only partially
// optimized; the Result covers the work done and is marked Incomplete.
func Run(ctx context.Context, a *aig.AIG, pass Pass, plan Plan, e Exec) (Result, error) {
	start := time.Now()
	enum, _ := pass.(Enumerator)
	eval, _ := pass.(Evaluator)
	// The commit phase reports as the replacement stage of a split pass,
	// or as the fused operator a commit-only pass is.
	commitPhase := metrics.PhaseFused
	if eval != nil {
		commitPhase = metrics.PhaseReplace
	}
	speculative := enum != nil || eval != nil || !plan.SerialCommit
	workers := e.Workers
	switch {
	case !speculative:
		workers = 1
	case workers <= 0:
		workers = runtime.GOMAXPROCS(0)
	}
	passes := max(e.Passes, 1)
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
	// of every worklist of every pass. A plan with no speculative phase
	// gets a team of one — no goroutine — and no executor.
	team := galois.NewTeam(workers)
	defer team.Close()
	var ex *galois.Executor
	if speculative {
		ex = galois.NewExecutor(a.Capacity()+1, team)
		ex.Fault = e.Fault
		ex.RetryBudget = e.RetryBudget
	}
	// runPhase brackets one executor run with the phase clock and
	// attributes the executor counter movement to that phase.
	var specBase galois.Stats
	runPhase := func(ph metrics.Phase, wl []int32, op galois.Operator) error {
		m.PhaseStart(ph)
		err := ex.RunCtx(ctx, wl, op)
		m.PhaseEnd(ph, ex.Stats.Sub(specBase))
		specBase = ex.Stats
		if err != nil {
			return fmt.Errorf("%s stage: %w", ph, err)
		}
		return nil
	}
	// conflict books one aborted activity.
	conflict := func(gc *galois.Ctx, ph metrics.Phase, id int32) error {
		if shards != nil {
			shards[gc.Worker()].Conflict(ph, id)
		}
		return galois.ErrConflict
	}
	// book counts one commit verdict into the worker's tally. A stale
	// verdict means the candidate's evaluation was thrown away.
	book := func(worker int, st Status) {
		switch st {
		case StatusCommitted:
			tallies[worker].replacements++
		case StatusStale:
			tallies[worker].stale++
			if shards != nil {
				shards[worker].WastedEvals++
			}
		}
	}
	enumOp := func(gc *galois.Ctx, id int32) error {
		if !gc.Acquire(id) || !enum.Enumerate(gc.Worker(), id, gc.Acquire) {
			return conflict(gc, metrics.PhaseEnumerate, id)
		}
		return nil
	}
	evalOp := func(gc *galois.Ctx, id int32) error {
		// Completely lock-free: the phase barriers guarantee the graph is
		// immutable while evaluation runs.
		if eval.Evaluate(gc.Worker(), id) && shards != nil {
			shards[gc.Worker()].Evals++
		}
		return nil
	}
	commitOp := func(gc *galois.Ctx, id int32) error {
		if eval != nil && !eval.Stored(id) {
			return nil
		}
		if !gc.Acquire(id) {
			return conflict(gc, commitPhase, id)
		}
		st := pass.Commit(gc.Worker(), id, gc.Acquire)
		if st == StatusConflict {
			return conflict(gc, commitPhase, id)
		}
		book(gc.Worker(), st)
		return nil
	}
	// serialCommit is the commit phase on the caller, slot 0, no locks. It
	// runs as a one-worker team phase so that a panicking Commit comes
	// back as an error here too.
	serialCommit := func(wl []int32) (err error) {
		m.PhaseStart(commitPhase)
		perr := team.Do(1, func(int) {
			for i, id := range wl {
				if i%SerialCancelStride == 0 {
					if err = ctx.Err(); err != nil {
						return
					}
				}
				if eval == nil || eval.Stored(id) {
					book(0, pass.Commit(0, id, nil))
				}
			}
		})
		m.PhaseEnd(commitPhase, metrics.Spec{})
		if perr != nil {
			return fmt.Errorf("%s stage: %w", commitPhase, perr)
		}
		return err
	}
	// runList takes one worklist through its phases.
	runList := func(wl []int32) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.ObserveLevel(len(wl))
		if enum != nil {
			if err := runPhase(metrics.PhaseEnumerate, wl, enumOp); err != nil {
				return err
			}
		}
		if eval != nil {
			if err := runPhase(metrics.PhaseEvaluate, wl, evalOp); err != nil {
				return err
			}
			for _, id := range wl {
				if eval.Stored(id) {
					attempts.Add(1)
				}
			}
		}
		if plan.SerialCommit {
			return serialCommit(wl)
		}
		return runPhase(commitPhase, wl, commitOp)
	}

	var runErr error
	for p := 0; p < passes && runErr == nil; p++ {
		pass.Begin(workers+1, env)
		for _, wl := range plan.Partition(a) {
			if len(wl) == 0 {
				continue
			}
			err := runList(wl)
			// The phase barriers ordered every shard write; fold the
			// per-worker counters in while the workers are quiescent.
			m.MergeShards(shards)
			if err != nil {
				runErr = fmt.Errorf("%s: %w", plan.Name, err)
				break
			}
		}
	}
	if ex != nil {
		res.absorb(&ex.Stats)
	}
	res.count(&attempts, tallies)
	res.finish(a, start, m, runErr)
	return res, runErr
}
