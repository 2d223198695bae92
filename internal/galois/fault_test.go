package galois

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func sequentialItems(n int) []int32 {
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i + 1)
	}
	return items
}

func TestFaultPlanForcesAbortsButCompletes(t *testing.T) {
	const n = 2000
	ex := newExecutor(t, n+1, 8)
	ex.Fault = &FaultPlan{Seed: 99, AbortRate: 0.3}
	var counts [n + 1]atomic.Int32
	err := ex.RunCtx(context.Background(), sequentialItems(n), func(ctx *Ctx, item int32) error {
		if !ctx.Acquire(item) {
			return ErrConflict
		}
		counts[item].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if counts[i].Load() != 1 {
			t.Fatalf("item %d committed %d times", i, counts[i].Load())
		}
	}
	inj := ex.Stats.InjectedAborts
	if inj == 0 {
		t.Fatal("no aborts injected at rate 0.3")
	}
	// The injected aborts are a subset of all aborts.
	if inj > ex.Stats.Aborts {
		t.Fatalf("injected %d > total aborts %d", inj, ex.Stats.Aborts)
	}
	t.Logf("injected %d aborts over %d commits", inj, ex.Stats.Commits)
}

func TestFaultInjectionIsSeedDeterministic(t *testing.T) {
	run := func() int64 {
		ex := newExecutor(t, 101, 1) // single worker: fully deterministic
		ex.Fault = &FaultPlan{Seed: 7, AbortRate: 0.5}
		err := ex.RunCtx(context.Background(), sequentialItems(100), func(ctx *Ctx, item int32) error {
			if !ctx.Acquire(item) {
				return ErrConflict
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ex.Stats.InjectedAborts
	}
	first := run()
	if first == 0 {
		t.Fatal("no aborts injected at rate 0.5")
	}
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d injected %d aborts, first run %d", i, again, first)
		}
	}
}

func TestLockFreeOperatorImmuneToForcedAborts(t *testing.T) {
	// Operators that take no locks (the evaluation stage) cannot be
	// aborted by the fault plan, mirroring the fact that they cannot
	// conflict.
	ex := newExecutor(t, 101, 4)
	ex.Fault = &FaultPlan{Seed: 3, AbortRate: 0.9}
	var ran atomic.Int32
	err := ex.RunCtx(context.Background(), sequentialItems(100), func(ctx *Ctx, item int32) error {
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 || ex.Stats.InjectedAborts != 0 {
		t.Fatalf("ran=%d injected=%d", ran.Load(), ex.Stats.InjectedAborts)
	}
}

func TestRetryBudgetReturnsTypedError(t *testing.T) {
	ex := newExecutor(t, 500, 2)
	ex.Fault = &FaultPlan{Seed: 1, AbortRate: 1.0, RetryBudget: 25}
	// Four acquisitions per activity: the doomed acquire (one of the
	// first four) always fires, so at rate 1.0 no activity can ever
	// commit and the budget must trip.
	err := ex.RunCtx(context.Background(), sequentialItems(40), func(ctx *Ctx, item int32) error {
		for _, id := range []int32{item, item + 100, item + 200, item + 300} {
			if !ctx.Acquire(id) {
				return ErrConflict
			}
		}
		return nil
	})
	var rbe *RetryBudgetError
	if !errors.As(err, &rbe) {
		t.Fatalf("err = %v, want *RetryBudgetError", err)
	}
	if rbe.Retries < 25 {
		t.Fatalf("budget error after only %d retries", rbe.Retries)
	}
}

func TestShuffledWorklistIsSeededPermutation(t *testing.T) {
	items := sequentialItems(64)
	p1 := (&FaultPlan{Seed: 5, ShuffleWorklist: true}).shuffled(items)
	p2 := (&FaultPlan{Seed: 5, ShuffleWorklist: true}).shuffled(items)
	p3 := (&FaultPlan{Seed: 6, ShuffleWorklist: true}).shuffled(items)
	if &p1[0] == &items[0] {
		t.Fatal("shuffle mutated the caller's slice")
	}
	same := true
	seen := make(map[int32]bool, len(items))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different permutations")
		}
		if p1[i] != p3[i] {
			same = false
		}
		seen[p1[i]] = true
	}
	if same {
		t.Fatal("different seeds produced the same permutation")
	}
	if len(seen) != len(items) {
		t.Fatalf("permutation dropped items: %d of %d", len(seen), len(items))
	}
	// A nil plan passes the slice through untouched.
	if got := (*FaultPlan)(nil).shuffled(items); &got[0] != &items[0] {
		t.Fatal("nil plan copied the worklist")
	}
}

func TestStallAndLockHoldInjection(t *testing.T) {
	ex := newExecutor(t, 33, 2)
	ex.Fault = &FaultPlan{
		Seed:          2,
		StallRate:     1.0,
		StallFor:      time.Microsecond,
		LockHoldDelay: time.Microsecond,
	}
	start := time.Now()
	err := ex.RunCtx(context.Background(), sequentialItems(32), func(ctx *Ctx, item int32) error {
		if !ctx.Acquire(item) {
			return ErrConflict
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 32 stalls + 32 lock-hold delays across 2 workers: at least ~16µs of
	// injected latency must be observable.
	if elapsed := time.Since(start); elapsed < 16*time.Microsecond {
		t.Fatalf("injection added no measurable latency (%v)", elapsed)
	}
}

func TestOperatorPanicBecomesError(t *testing.T) {
	// One worker runs on the caller's goroutine; its panic is caught too.
	for _, workers := range []int{1, 4} {
		operatorPanicBecomesError(t, workers)
	}
}

func operatorPanicBecomesError(t *testing.T, workers int) {
	// 64 items: enough for four workers to share the list.
	ex := newExecutor(t, 65, workers)
	err := ex.RunCtx(context.Background(), sequentialItems(64), func(ctx *Ctx, item int32) error {
		if !ctx.Acquire(item) {
			return ErrConflict
		}
		if item == 5 {
			panic("operator bug")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "operator bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
	// The panicking worker must have released its locks: every lock is
	// re-acquirable afterwards.
	for id := int32(1); id <= 64; id++ {
		if ok, _ := ex.Table.tryAcquire(99, id); !ok {
			t.Fatalf("lock %d still held after panic", id)
		}
		ex.Table.release(99, id)
	}
}

func TestNilFaultPlanIsInert(t *testing.T) {
	var p *FaultPlan
	if p.active() {
		t.Fatal("nil plan active")
	}
	if p.injectorFor(1) != nil {
		t.Fatal("nil plan produced an injector")
	}
	if (&FaultPlan{}).active() {
		t.Fatal("zero plan active")
	}
}

// A worker's fault stream runs on from phase to phase: a run made of many
// one-item phases — the replace phase of a deep, narrow circuit — must see
// the plan's abort rate like one long phase does, not the first draw of
// the stream over and over.
func TestFaultStreamOutlivesThePhase(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ex := newExecutor(t, 500, workers)
		ex.Fault = &FaultPlan{Seed: 42, AbortRate: 0.25}
		const phases = 2000
		for i := int32(1); i <= phases; i++ {
			item := 1 + i%90
			// Four acquisitions, so that whichever of its first four the plan
			// refuses, the activity has it.
			err := ex.RunCtx(context.Background(), []int32{item}, func(c *Ctx, item int32) error {
				for _, id := range []int32{item, item + 100, item + 200, item + 300} {
					if !c.Acquire(id) {
						return ErrConflict
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("phase %d: %v", i, err)
			}
		}
		st := ex.Stats
		if st.Commits != phases || st.Aborts != st.InjectedAborts {
			t.Fatalf("%d workers: %+v, want %d commits and no abort but the injected ones", workers, st, phases)
		}
		if rate := float64(st.InjectedAborts) / float64(st.Commits+st.Aborts); rate < 0.2 || rate > 0.3 {
			t.Fatalf("%d workers: %d of %d attempts aborted (%.3f), the plan says 0.25",
				workers, st.InjectedAborts, st.Commits+st.Aborts, rate)
		}
	}
}
