// Package engine is the shared divide-and-conquer pass pipeline of this
// repository: one worklist partitioner with pluggable policies, one loop
// — per worklist: one lock-free sweep (enumerate, then evaluate, chunk by
// chunk) → commit of the nodes that came out of it with a candidate —
// whose steps are chosen by what the pass can do, one candidate store
// that carries the sweep's decisions to the commit, and one spine for the
// worker team (started once per run, see galois.Team), metrics shards,
// context cancellation checkpoints, and the executor's fault plans and
// retry budgets.
//
// Every optimization pass in the repository runs through Run, and every
// engine of the paper's comparison is a case of its loop (Algorithm 1):
//
//   - DACPara: per level worklist, the sweep and then a serial commit of
//     the stored candidates in worklist order — no lock, no abort;
//   - the DAC'22/TCAD'23 static GPU models: the same two steps over ONE
//     worklist — the whole graph in level order — so every decision is
//     taken on the unchanged input graph;
//   - the ICCAD'18 fused-lock baseline: the commit phase alone, under the
//     executor, the pass doing all three stages inside it under one lock set;
//   - the ABC serial baseline: the commit phase alone, serially — one
//     thread, immediate commits;
//   - refactoring and resubstitution: lock-free evaluation per level,
//     then a serial commit that revalidates every stored candidate on
//     the latest graph.
//
// The framework owns the loop, the candidates between sweep and commit,
// the Result assembly, the phase clocks and shard merges, and the
// attempt/replacement/stale accounting; a pass supplies only the per-node
// work.
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
// needs no locks. It is the cut manager's visitor type, so a commit hands
// its lock straight to the re-enumeration it may need.
type Locker = cut.Visitor

// Policy partitions a network into ordered worklists — the paper's
// nodeDividing step. See ByLevel, LevelOrder and Flat.
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
// own attempts; otherwise the framework counts the candidates the sweep
// stored), and the per-worker-slot cut-storage pools. Pools are created
// once per engine run and survive the pass loop. Storage a commit gives
// back — the sets of the nodes it deleted — goes to the committing slot's
// pool; before each sweep Run moves what slot 0's serial commits gave
// back to the sweep's workers, so later worklists enumerate into it.
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

// Pass is what every pass implements; C is the candidate its sweep
// hands its commit. Begin is called once per pass, before partitioning,
// with the worker-slot count: always workers+1. The executor's workers
// carry the tags 1..workers; slot 0 belongs to the serial commit. A hook
// indexes its per-worker state by the worker argument and nothing else.
//
// A pass that is only a Pass does all of a node's work in Commit (the
// fused and serial operators). Implementing Evaluator and Enumerator as
// well splits that work into the phases of Algorithm 1.
type Pass[C any] interface {
	Begin(slots int, env Env)
	// Commit applies the node's candidate — for an Evaluator, after
	// revalidating cand, the one its Evaluate stored, on the latest
	// graph; a commit-only pass gets a nil cand. When lock is non-nil the
	// framework already holds the node's own lock.
	Commit(worker int, id int32, cand *C, lock Locker) Status
}

// Evaluator gives each worklist a lock-free sweep before its commit
// phase, and restricts the commit phase to the nodes that came out of it
// with a stored candidate. An Evaluator's commit phase is always serial.
type Evaluator[C any] interface {
	// Evaluate computes the node's best candidate against the immutable
	// graph, lock-free, into cand — a slot of the engine's that may hold
	// an earlier node's candidate — and reports whether it stored one
	// and whether the call counts as one evaluation.
	Evaluate(worker int, id int32, cand *C) (stored, counted bool)
}

// Enumerator adds an enumeration step to the sweep: a worker enumerates
// the nodes of a chunk, then evaluates them.
type Enumerator interface {
	// Enumerate prepares one node (cut sets, windows) against the
	// immutable graph. It takes no lock and cannot fail: other workers are
	// enumerating other nodes of the list at the same time, so what the
	// hook shares with them it must share safely (see cut.Manager).
	Enumerate(worker int, id int32)
}

// Plan describes how a pass is driven.
type Plan struct {
	// Name is the engine name reported in Result, StartRun and errors.
	Name string
	// Partition is the worklist policy.
	Partition Policy
	// SerialCommit runs a commit-only pass's commit phase serially on
	// slot 0, in worklist order with a nil Locker, instead of under the
	// speculative executor — abc's, not iccad18's. A plan whose only
	// phase is a serial commit runs on one worker whatever Exec.Workers
	// says. An Evaluator commits serially whatever it says: safety comes
	// from commit-time revalidation.
	SerialCommit bool
}

// Exec carries the spine knobs shared by every pass: parallelism, pass
// count, fault injection and the metrics collector.
type Exec struct {
	// Workers sets the parallelism (0: runtime.GOMAXPROCS).
	Workers int
	// Passes repeats the whole sweep (0: one pass).
	Passes int
	// Fault injects seeded faults into the speculative executor (iccad18's).
	Fault *galois.FaultPlan
	// Metrics, when non-nil, collects the run's instrumentation.
	Metrics *metrics.Collector
}

// SerialCancelStride is how many nodes a serial commit sweep processes
// between context polls: coarse enough to keep the hot loop cheap, fine
// enough that cancellation lands within a few hundred node visits.
const SerialCancelStride = 256

// Run drives a pass over the network: for each pass, for each worklist
// of the plan's partition, the lock-free sweep (if the pass is an
// Evaluator, with an enumeration step if it is an Enumerator too) and the
// commit phase over the nodes the sweep left a candidate on, serially in
// worklist order — or, for a commit-only pass, over every node, under
// the speculative executor or, when the plan says so, serially. The
// worklist boundary is the cancellation point of Algorithm 1: between
// worklists no activity is in flight, so stopping there abandons no
// speculative work; the sweep also stops between chunks, the executor
// between activities, and a serial commit polls every
// SerialCancelStride nodes. A non-nil error (cancellation,
// retry-budget exhaustion, fault injection, a panicking hook as
// *galois.PanicError) leaves the network structurally consistent but only
// partially optimized; the Result covers the work done and is marked
// Incomplete.
func Run[C any](ctx context.Context, a *aig.AIG, pass Pass[C], plan Plan, e Exec) (Result, error) {
	start := time.Now()
	enum, _ := pass.(Enumerator)
	eval, _ := pass.(Evaluator[C])
	// The commit phase reports as the replacement stage of a split pass,
	// or as the fused operator a commit-only pass is.
	commitPhase := metrics.PhaseFused
	if eval != nil {
		commitPhase = metrics.PhaseReplace
	}
	sweeps := enum != nil || eval != nil
	serial := plan.SerialCommit || eval != nil
	workers := e.Workers
	switch {
	case !sweeps && serial:
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

	// One team serves every sweep and every commit phase of every worklist
	// of every pass, and one executor, lock table included, the speculative
	// commits. A plan with nothing to share gets a team of one — no
	// goroutine — and one that commits serially no executor.
	team := galois.NewTeam(workers)
	defer team.Close()
	var ex *galois.Executor
	if !serial {
		ex = galois.NewExecutor(a.Capacity()+1, team)
		ex.Fault = e.Fault
	}
	// The candidate store: the sweep evaluates the node at worklist
	// position i into cands[i] and notes in stored[i] whether it kept one;
	// then the stored candidates move, in worklist order, to the front,
	// their IDs to ids. It is grown to the longest worklist and reused
	// across worklists and passes — the paper's prepInfo, sized by the
	// worklist instead of the graph.
	var (
		cands  []C
		stored []bool
		ids    []int32
	)
	// sweep is the lock-free step of one worklist, run on the team itself:
	// a worker takes a chunk, enumerates it, then evaluates it. Nothing in
	// it takes a lock, so nothing aborts and nothing is retried; the chunk
	// clocks are its work, booked as committed time; lockFreeNs also sums
	// the serial commits'.
	var lockFreeNs int64
	done := ctx.Done()
	sweep := func(wl []int32) error {
		t0 := time.Now()
		n, cur := team.Split(len(wl))
		// The storage slot 0's commits gave back goes to the workers
		// that will enumerate into it.
		cut.Share(env.CutPools[0], env.CutPools[1:n+1])
		perr := team.Do(n, func(worker int) {
			tl := &tallies[worker]
			for {
				select {
				case <-done:
					return
				default:
				}
				lo, hi, ok := cur.Next()
				if !ok {
					return
				}
				chunk := wl[lo:hi]
				c0 := time.Now()
				c1 := c0
				if enum != nil {
					for _, id := range chunk {
						enum.Enumerate(worker, id)
					}
					c1 = time.Now()
				}
				tl.enumNs += c1.Sub(c0).Nanoseconds()
				if eval == nil {
					continue
				}
				var evals int64
				for i, id := range chunk {
					ok, counted := eval.Evaluate(worker, id, &cands[lo+i])
					stored[lo+i] = ok
					if counted {
						evals++
					}
				}
				tl.evalNs += time.Since(c1).Nanoseconds()
				if shards != nil {
					shards[worker].Evals += evals
				}
			}
		})
		wall := time.Since(t0)
		var enumNs, evalNs int64
		for w := 1; w <= n; w++ {
			tl := &tallies[w]
			enumNs, evalNs = enumNs+tl.enumNs, evalNs+tl.evalNs
			tl.enumNs, tl.evalNs = 0, 0
		}
		lockFreeNs += enumNs + evalNs
		// The two phases share the sweep's wall in proportion to their
		// work, so that the phase walls still add up to the time between
		// barriers.
		var enumWall time.Duration
		if work := enumNs + evalNs; work > 0 {
			enumWall = time.Duration(float64(wall) * float64(enumNs) / float64(work))
		}
		if enum != nil {
			m.Interval(metrics.PhaseEnumerate, enumWall, metrics.Spec{CommittedNs: enumNs})
		}
		if eval != nil {
			m.Interval(metrics.PhaseEvaluate, wall-enumWall, metrics.Spec{CommittedNs: evalNs})
		}
		if perr != nil {
			return fmt.Errorf("sweep: %w", perr)
		}
		return ctx.Err()
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
	// conflict books one aborted commit.
	conflict := func(gc *galois.Ctx, id int32) error {
		if shards != nil {
			shards[gc.Worker()].Conflict(commitPhase, id)
		}
		return galois.ErrConflict
	}
	commitOp := func(gc *galois.Ctx, id int32) error {
		if !gc.Acquire(id) {
			return conflict(gc, id)
		}
		st := pass.Commit(gc.Worker(), id, nil, gc.Acquire)
		if st == StatusConflict {
			return conflict(gc, id)
		}
		book(gc.Worker(), st)
		return nil
	}
	// commit is the commit phase of one list: under the executor, which
	// keeps a list shorter than the hand-out rule's cutoff on the caller,
	// or serially on slot 0 with no locks — as a one-worker team phase, so
	// that a panicking Commit comes back as an error here too, its elapsed
	// time booked as work. An Evaluator's i-th node gets cands[i].
	commit := func(wl []int32) (err error) {
		var perr error // what the phase failed with, a cancelled serial commit apart
		m.PhaseStart(commitPhase)
		if serial {
			c0 := time.Now()
			perr = team.Do(1, func(int) {
				var cand *C
				for i, id := range wl {
					if i%SerialCancelStride == 0 {
						if err = ctx.Err(); err != nil {
							return
						}
					}
					if eval != nil {
						cand = &cands[i]
					}
					book(0, pass.Commit(0, id, cand, nil))
				}
			})
			ns := time.Since(c0).Nanoseconds()
			lockFreeNs += ns
			m.PhaseEnd(commitPhase, metrics.Spec{CommittedNs: ns})
		} else {
			before := ex.Stats
			perr = ex.RunCtx(ctx, wl, commitOp)
			m.PhaseEnd(commitPhase, ex.Stats.Sub(before))
		}
		if perr != nil {
			return fmt.Errorf("%s stage: %w", commitPhase, perr)
		}
		return err
	}
	// runList takes one worklist through the sweep and the commit phase.
	runList := func(wl []int32) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.ObserveLevel(len(wl))
		if eval != nil && len(wl) > len(cands) {
			cands, stored = make([]C, len(wl)), make([]bool, len(wl))
		}
		if sweeps {
			if err := sweep(wl); err != nil {
				return err
			}
		}
		if eval != nil {
			// Only the nodes that hold a candidate go on, in worklist
			// order. A swap, not a copy, keeps every slot's candidate in
			// one slot only.
			ids = ids[:0]
			for i, id := range wl {
				if stored[i] {
					k := len(ids)
					cands[k], cands[i] = cands[i], cands[k]
					ids = append(ids, id)
				}
			}
			attempts.Add(int64(len(ids)))
			wl = ids
		}
		return commit(wl)
	}

	var runErr error
	for p := 0; p < passes && runErr == nil; p++ {
		pass.Begin(workers+1, env)
		for _, wl := range plan.Partition(a) {
			if len(wl) == 0 {
				continue
			}
			err := runList(wl)
			// The barriers ordered every shard write; fold the per-worker
			// counters in while the workers are quiescent.
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
	res.CommittedWork += time.Duration(lockFreeNs)
	res.count(&attempts, tallies)
	res.finish(a, start, m, runErr)
	return res, runErr
}
