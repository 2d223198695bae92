// Package galois provides a speculative parallel executor for irregular
// graph algorithms in the style of the Galois system (Pingali et al.,
// PLDI'11), which the paper uses as its parallel substrate.
//
// Work items from a worklist are processed by the workers of a Team (see
// team.go): the calling goroutine plus helpers that are started once per
// engine run and meet at spinning barriers, as Galois's own threads do. An
// activity acquires per-node exclusive locks as it discovers the nodes it
// must read or write; when it fails to acquire a lock held by another
// activity it aborts — every lock it holds is released and all computation
// it performed is discarded — and the item is rescheduled. Operators must
// therefore be cautious: acquire every needed lock before the first
// mutation, so aborts never require rollback.
package galois

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrConflict is returned by operators to signal a lock conflict; the
// executor reschedules the item.
type conflictError struct{}

func (conflictError) Error() string { return "galois: lock conflict" }

// ErrConflict signals that an activity must abort and retry.
var ErrConflict error = conflictError{}

// PanicError wraps a panic recovered inside an executor worker. The
// worker's locks are released and the run stops with this error instead
// of crashing the process; the graph may be left half-mutated by the
// panicking activity, so callers must treat the network as suspect:
// discard it, or check it (aig.Check, an equivalence check) before use.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at the point of the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("galois: operator panic: %v", e.Value)
}

const (
	lockPageBits = 13
	lockPageSize = 1 << lockPageBits
	lockPageMask = lockPageSize - 1
)

type lockPage [lockPageSize]atomic.Int32

// LockTable holds one exclusive lock per node ID. It grows on demand, so
// node IDs allocated during rewriting are lockable too.
type LockTable struct {
	pages  atomic.Pointer[[]*lockPage]
	growMu sync.Mutex
}

// NewLockTable creates a table pre-sized for the given capacity.
func NewLockTable(capacity int32) *LockTable {
	t := &LockTable{}
	pages := make([]*lockPage, 0, 8)
	t.pages.Store(&pages)
	t.ensure(capacity)
	return t
}

func (t *LockTable) ensure(n int32) {
	for {
		pages := *t.pages.Load()
		if int32(len(pages))*lockPageSize > n {
			return
		}
		t.growMu.Lock()
		cur := *t.pages.Load()
		if int32(len(cur))*lockPageSize > n {
			t.growMu.Unlock()
			continue
		}
		next := make([]*lockPage, len(cur), len(cur)*2+2)
		copy(next, cur)
		for int32(len(next))*lockPageSize <= n {
			next = append(next, new(lockPage))
		}
		t.pages.Store(&next)
		t.growMu.Unlock()
	}
}

func (t *LockTable) slot(id int32) *atomic.Int32 {
	t.ensure(id)
	pages := *t.pages.Load()
	return &pages[id>>lockPageBits][id&lockPageMask]
}

// tryAcquire attempts to take the lock for owner (a positive worker tag).
// It succeeds if the lock is free or already held by the same owner,
// reporting newly whether this call took it.
func (t *LockTable) tryAcquire(owner, id int32) (ok, newly bool) {
	s := t.slot(id)
	if s.CompareAndSwap(0, owner) {
		return true, true
	}
	return s.Load() == owner, false
}

func (t *LockTable) release(owner, id int32) {
	s := t.slot(id)
	if !s.CompareAndSwap(owner, 0) {
		panic("galois: releasing lock not held by owner")
	}
}

// Stats aggregates executor behaviour; the conflict experiment of the
// paper's Fig. 2 is reproduced from these counters. They are plain
// values: every worker counts into a Stats of its own, and the executor
// folds those into its total at the barrier that ends each run, so the
// total is read between runs, by the goroutine that calls them. The JSON
// names are those of the metrics snapshot (metrics.Spec is this type).
type Stats struct {
	// Commits counts activities that completed.
	Commits int64 `json:"commits"`
	// Aborts counts activities discarded because of a lock conflict.
	Aborts int64 `json:"aborts"`
	// InjectedAborts counts the aborts forced by a FaultPlan (a subset of
	// Aborts, as each spurious acquire failure aborts its activity).
	InjectedAborts int64 `json:"injected_aborts"`
	// LocksTaken counts successful lock acquisitions; LockFailures the
	// acquisitions that found the lock held by another activity (each
	// failure aborts its activity, so failures trace where conflicts
	// actually arise — the paper's Section 4 claim that enumeration and
	// replacement conflicts are rare is readable from this counter).
	LocksTaken   int64 `json:"locks_taken"`
	LockFailures int64 `json:"lock_failures"`
	// CommittedNs and WastedNs accumulate the time spent inside
	// committed and aborted activities respectively. On machines without
	// enough cores to observe wall-clock speedups, the wasted fraction is
	// the reproducible signal of the paper's Fig. 2: a fused operator
	// discards its whole (evaluation-heavy) computation on conflict,
	// split operators discard almost nothing.
	CommittedNs int64 `json:"committed_ns"`
	WastedNs    int64 `json:"wasted_ns"`
}

// Add folds the counters of d into s.
func (s *Stats) Add(d Stats) {
	s.Commits += d.Commits
	s.Aborts += d.Aborts
	s.InjectedAborts += d.InjectedAborts
	s.LocksTaken += d.LocksTaken
	s.LockFailures += d.LockFailures
	s.CommittedNs += d.CommittedNs
	s.WastedNs += d.WastedNs
}

// Sub returns the counter movement since prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Commits:        s.Commits - prev.Commits,
		Aborts:         s.Aborts - prev.Aborts,
		InjectedAborts: s.InjectedAborts - prev.InjectedAborts,
		LocksTaken:     s.LocksTaken - prev.LocksTaken,
		LockFailures:   s.LockFailures - prev.LockFailures,
		CommittedNs:    s.CommittedNs - prev.CommittedNs,
		WastedNs:       s.WastedNs - prev.WastedNs,
	}
}

// WastedFraction is the share of speculative work discarded on aborts.
func (s Stats) WastedFraction() float64 {
	total := s.CommittedNs + s.WastedNs
	if total == 0 {
		return 0
	}
	return float64(s.WastedNs) / float64(total)
}

// workerStats is one worker's counters, padded to two cache lines so that
// neighbouring workers never write the same one.
type workerStats struct {
	Stats
	_ [72]byte
}

// Ctx is the per-activity handle passed to operators: it acquires locks on
// behalf of the activity and remembers them for release.
type Ctx struct {
	owner int32
	table *LockTable
	stats *Stats
	inj   *injector
	held  []int32
}

// Worker returns the 1-based worker index running this activity, for
// indexing worker-local state.
func (c *Ctx) Worker() int { return int(c.owner) }

// Acquire takes the exclusive lock of node id, returning false on
// conflict. On false the operator must immediately return ErrConflict.
func (c *Ctx) Acquire(id int32) bool {
	if c.inj != nil && c.inj.spuriousFail() {
		c.stats.InjectedAborts++
		c.stats.LockFailures++
		return false
	}
	ok, newly := c.table.tryAcquire(c.owner, id)
	if !ok {
		c.stats.LockFailures++
		return false
	}
	if newly {
		c.held = append(c.held, id)
		c.stats.LocksTaken++
	}
	return true
}

func (c *Ctx) releaseAll() {
	for _, id := range c.held {
		c.table.release(c.owner, id)
	}
	c.held = c.held[:0]
}

// Operator processes one work item under ctx. Returning ErrConflict
// reschedules the item; any other error aborts the run.
type Operator func(ctx *Ctx, item int32) error

// Executor runs operators over worklists with a shared lock table, so
// consecutive phases (enumeration, evaluation, replacement) conflict
// correctly with each other if they overlap. It lives as long as its
// team: one engine run.
type Executor struct {
	Table *LockTable
	Team  *Team
	// Stats is the total over the runs finished so far.
	Stats Stats

	// Fault, when non-nil, injects seeded faults into every Run (see
	// FaultPlan) and sets its retry budget. Nil is the zero-cost
	// production default.
	Fault *FaultPlan

	local  []workerStats // by worker tag; folded into Stats after each run
	inj    []*injector   // by worker tag, for the plan injFor; nil if it injects nothing
	injFor *FaultPlan
}

// injectors returns the workers' fault state under the current plan. It is
// made once per plan, not per run: a worker's random stream has to run on
// from one phase to the next, or every phase would replay the same first
// draws and a run of short phases would see no fault at all, or the same
// one every time.
func (e *Executor) injectors() []*injector {
	if e.injFor != e.Fault {
		e.injFor, e.inj = e.Fault, nil
		if e.Fault.active() {
			e.inj = make([]*injector, len(e.local))
			for tag := range e.inj {
				e.inj[tag] = e.Fault.injectorFor(int32(tag))
			}
		}
	}
	return e.inj
}

// NewExecutor creates an executor that runs on team, over nodes up to
// capacity (the lock table grows past it on demand).
func NewExecutor(capacity int32, team *Team) *Executor {
	return &Executor{
		Table: NewLockTable(capacity),
		Team:  team,
		local: make([]workerStats, team.Workers()+1),
	}
}

// RunCtx processes every item of the worklist with op, in parallel,
// retrying conflicted items until all commit or an item exhausts the
// retry budget. It returns the first non-conflict error; a
// *RetryBudgetError means a pathological conflict storm (or an
// adversarial FaultPlan) kept one item from ever committing. Workers
// observe cancellation between activities (at chunk boundaries of the
// main loop and between retries of the drain loop), never mid-operator,
// so an in-flight activity always finishes and releases its locks before
// the worker exits. A cancelled run returns ctx.Err(); items not yet
// processed are simply left undone, which for the rewriting engines means
// a structurally consistent but partially rewritten network.
func (e *Executor) RunCtx(ctx context.Context, items []int32, op Operator) error {
	if len(items) == 0 {
		return ctx.Err()
	}
	items = e.Fault.shuffled(items)
	budget := e.Fault.retryBudget()
	// A list too short to share, or one that makes a single chunk, runs
	// as a one-worker phase: on the caller under tag 1, no helper woken.
	workers, cursor := e.Team.Split(len(items))
	injectors := e.injectors()
	var firstErr atomic.Pointer[error]
	// cancelled polls the context without blocking; on cancellation it
	// records ctx.Err() as the run error so every worker stops at its next
	// activity boundary.
	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			err := ctx.Err()
			firstErr.CompareAndSwap(nil, &err)
			return true
		default:
			return false
		}
	}
	work := func(worker int) {
		tag := int32(worker)
		var inj *injector
		if injectors != nil {
			inj = injectors[worker]
		}
		stats := &e.local[worker].Stats
		ctx := &Ctx{owner: tag, table: e.Table, stats: stats, inj: inj}
		// A panicking operator must not strand the other workers: release
		// the activity's locks and surface the panic as the run's error,
		// which also stops them at their next activity.
		defer func() {
			if p := recover(); p != nil {
				ctx.releaseAll()
				var err error = &PanicError{Value: p, Stack: debug.Stack()}
				firstErr.CompareAndSwap(nil, &err)
			}
		}()
		var retry []int32
		process := func(item int32) {
			if inj != nil {
				inj.preItem()
				inj.beginActivity()
			}
			t0 := time.Now()
			err := op(ctx, item)
			if inj != nil {
				inj.preRelease(len(ctx.held) > 0)
			}
			ctx.releaseAll()
			elapsed := time.Since(t0).Nanoseconds()
			switch err {
			case nil:
				stats.Commits++
				stats.CommittedNs += elapsed
			case ErrConflict:
				stats.Aborts++
				stats.WastedNs += elapsed
				retry = append(retry, item)
			default:
				p := err
				firstErr.CompareAndSwap(nil, &p)
			}
		}
		for firstErr.Load() == nil && !cancelled() {
			lo, hi, ok := cursor.Next()
			if !ok {
				break
			}
			for _, item := range items[lo:hi] {
				process(item)
			}
		}
		// Drain this worker's conflicted items: retry with yields and
		// bounded exponential backoff until each commits (the holders
		// always release their locks) or the budget runs out.
		for _, item := range retry {
			if firstErr.Load() != nil || cancelled() {
				return
			}
			for r := 1; ; r++ {
				if inj != nil {
					inj.beginActivity()
				}
				t0 := time.Now()
				err := op(ctx, item)
				if inj != nil {
					inj.preRelease(len(ctx.held) > 0)
				}
				ctx.releaseAll()
				elapsed := time.Since(t0).Nanoseconds()
				if err == nil {
					stats.Commits++
					stats.CommittedNs += elapsed
					break
				}
				if err != ErrConflict {
					p := err
					firstErr.CompareAndSwap(nil, &p)
					break
				}
				stats.Aborts++
				stats.WastedNs += elapsed
				if r >= budget {
					var p error = &RetryBudgetError{Item: item, Retries: r}
					firstErr.CompareAndSwap(nil, &p)
					break
				}
				if cancelled() {
					return
				}
				runtime.Gosched()
				backoff(r)
			}
		}
	}
	err := e.Team.Do(workers, work)
	// The barrier ordered the workers' counter writes: fold them in on
	// every path, so that a run that failed still accounts for its work.
	for w := 1; w <= workers; w++ {
		e.Stats.Add(e.local[w].Stats)
		e.local[w].Stats = Stats{}
	}
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return err
}
