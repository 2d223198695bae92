package galois

import (
	"fmt"
	"math/rand"
	"time"
)

// FaultPlan injects deterministic, seeded faults into an Executor run. It
// exists to provoke the rare interleavings that speculative parallel
// rewriting must survive — conflict storms, slow lock holders, stalled
// workers, adversarial scheduling — so that tests can exercise the abort,
// retry and guarded-rollback machinery on demand instead of waiting for
// them to occur naturally.
//
// A nil *FaultPlan is the zero-cost default: the executor takes a single
// nil check per run and otherwise behaves exactly as without the fault
// subsystem. All injected behaviour is derived from Seed plus the worker
// tag, one random stream per worker for as long as the executor runs under
// the plan, so the same sequence of runs with a given plan, worklists and
// worker count injects the same faults every time (the interleaving of
// real conflicts of course remains nondeterministic).
//
// Forced aborts are injected as spurious Acquire failures: a doomed
// activity sees one of its lock acquisitions fail even though the lock is
// free, and must abort exactly as it would on a real conflict. This is
// safe by the executor's cautious-operator contract (acquire everything
// before the first mutation) and indistinguishable from contention to the
// operator — which is the point. Operators that take no locks (the
// lock-free evaluation stage) are naturally immune, mirroring the fact
// that they cannot conflict.
type FaultPlan struct {
	// Seed makes the injection deterministic. Two runs with equal seeds,
	// worklists and worker counts force the same aborts.
	Seed int64

	// AbortRate is the probability, per activity, that one of its lock
	// acquisitions is spuriously refused, forcing an abort-and-retry.
	// The refused acquisition is chosen among the activity's first few
	// acquire calls. Must be in [0, 1).
	AbortRate float64

	// LockHoldDelay stretches the window in which an activity holds its
	// locks: every activity that holds at least one lock sleeps this long
	// before releasing, amplifying real contention.
	LockHoldDelay time.Duration

	// StallRate is the probability, per work item, that the worker sleeps
	// for StallFor before processing it — a model of scheduling stalls
	// (preemption, page faults) that desynchronize workers.
	StallRate float64
	// StallFor is the stall duration (default 100µs when StallRate > 0).
	StallFor time.Duration

	// ShuffleWorklist processes the items in a seeded random permutation
	// instead of the caller's order, breaking locality assumptions.
	ShuffleWorklist bool
}

// active reports whether the plan injects anything.
func (p *FaultPlan) active() bool {
	if p == nil {
		return false
	}
	return p.AbortRate > 0 || p.LockHoldDelay > 0 || p.StallRate > 0 || p.ShuffleWorklist
}

// shuffled returns the worklist to process: the caller's slice untouched,
// or a seeded permutation of it.
func (p *FaultPlan) shuffled(items []int32) []int32 {
	if p == nil || !p.ShuffleWorklist {
		return items
	}
	out := make([]int32, len(items))
	copy(out, items)
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5deece66d))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// injector is the per-worker fault state. Each worker derives its own RNG
// from the plan seed and its tag, so workers never share mutable state.
type injector struct {
	plan *FaultPlan
	rng  *rand.Rand
	// failAt counts down acquire calls of the current activity; when it
	// hits zero the acquire is spuriously refused. Negative: not doomed.
	failAt int
}

func (p *FaultPlan) injectorFor(tag int32) *injector {
	if !p.active() {
		return nil
	}
	return &injector{
		plan: p,
		rng:  rand.New(rand.NewSource(p.Seed ^ int64(tag)*0x9e3779b97f4a7c)),
	}
}

// beginActivity rolls the dice for one activity attempt.
func (in *injector) beginActivity() {
	in.failAt = -1
	if in.plan.AbortRate > 0 && in.rng.Float64() < in.plan.AbortRate {
		// Refuse one of the first four acquisitions, so both the entry
		// lock and the deeper region locks get exercised.
		in.failAt = in.rng.Intn(4)
	}
}

// spuriousFail reports whether this acquire call must be refused.
func (in *injector) spuriousFail() bool {
	if in.failAt < 0 {
		return false
	}
	if in.failAt == 0 {
		in.failAt = -1
		return true
	}
	in.failAt--
	return false
}

// preItem injects a worker stall before processing an item.
func (in *injector) preItem() {
	if in.plan.StallRate > 0 && in.rng.Float64() < in.plan.StallRate {
		d := in.plan.StallFor
		if d <= 0 {
			d = 100 * time.Microsecond
		}
		time.Sleep(d)
	}
}

// preRelease injects the lock-hold delay while locks are still held.
func (in *injector) preRelease(holding bool) {
	if holding && in.plan.LockHoldDelay > 0 {
		time.Sleep(in.plan.LockHoldDelay)
	}
}

// DefaultRetryBudget bounds how many consecutive aborts a single item may
// suffer before Run gives up with a *RetryBudgetError. Real conflicts
// resolve in a handful of retries (the holder always releases); even a 50%
// forced-abort rate clears in a few dozen. The default is high enough to
// be unreachable outside a genuine livelock or an adversarial fault plan.
const DefaultRetryBudget = 10_000

// RetryBudgetError reports an activity that failed to commit within the
// executor's retry budget — the bounded-retry replacement for the former
// unbounded spin, so a pathological conflict storm degrades into a typed
// error instead of a livelock.
type RetryBudgetError struct {
	// Item is the work item whose activity kept aborting.
	Item int32
	// Retries is the number of aborted attempts the item consumed.
	Retries int
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("galois: item %d aborted %d times, retry budget exhausted", e.Item, e.Retries)
}

// backoff yields or sleeps after the r-th consecutive abort of one item.
// Early retries just reschedule; persistent conflicts back off
// exponentially (capped at ~1ms) so a contended region can drain.
func backoff(r int) {
	const spinRetries = 16
	if r < spinRetries {
		return // caller Goscheds
	}
	shift := r - spinRetries
	if shift > 10 {
		shift = 10
	}
	time.Sleep(time.Microsecond << uint(shift))
}
