package galois

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestLockTableBasics(t *testing.T) {
	tab := NewLockTable(100)
	ok, newly := tab.tryAcquire(1, 5)
	if !ok || !newly {
		t.Fatal("free lock refused")
	}
	// Re-entrant for the same owner.
	ok, newly = tab.tryAcquire(1, 5)
	if !ok || newly {
		t.Fatal("re-entrant acquire misbehaved")
	}
	// Other owners conflict.
	if ok, _ := tab.tryAcquire(2, 5); ok {
		t.Fatal("conflicting acquire succeeded")
	}
	tab.release(1, 5)
	if ok, _ := tab.tryAcquire(2, 5); !ok {
		t.Fatal("released lock refused")
	}
}

func TestLockTableGrowth(t *testing.T) {
	tab := NewLockTable(1)
	// IDs far beyond the initial capacity must be lockable.
	if ok, _ := tab.tryAcquire(1, 1_000_000); !ok {
		t.Fatal("grown slot refused")
	}
	tab.release(1, 1_000_000)
}

func TestReleaseWrongOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab := NewLockTable(10)
	tab.tryAcquire(1, 3)
	tab.release(2, 3)
}

func TestRunProcessesEveryItemOnce(t *testing.T) {
	ex := NewExecutor(1000, 8)
	items := make([]int32, 500)
	for i := range items {
		items[i] = int32(i)
	}
	var counts [500]atomic.Int32
	err := ex.Run(items, func(ctx *Ctx, item int32) error {
		if !ctx.Acquire(item) {
			return ErrConflict
		}
		counts[item].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("item %d processed %d times", i, counts[i].Load())
		}
	}
	if ex.Stats.Commits.Load() != 500 {
		t.Fatalf("commits %d", ex.Stats.Commits.Load())
	}
}

// TestSpeculativeCounterIncrements is the classic irregular-parallelism
// exercise: every activity locks a shared cell and a private cell; the
// executor must serialize the shared updates through conflicts and
// retries without losing any.
func TestSpeculativeCounterIncrements(t *testing.T) {
	const n = 2000
	ex := NewExecutor(n+1, 8)
	var shared int64 // protected by lock 0, not by atomics
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i + 1)
	}
	err := ex.Run(items, func(ctx *Ctx, item int32) error {
		if !ctx.Acquire(item) {
			return ErrConflict
		}
		if !ctx.Acquire(0) {
			return ErrConflict
		}
		shared++ // safe: lock 0 held
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared != n {
		t.Fatalf("lost updates: %d of %d", shared, n)
	}
	commits, aborts, locks := ex.Stats.Commits.Load(), ex.Stats.Aborts.Load(), ex.Stats.LocksTaken.Load()
	if commits != n {
		t.Fatalf("commits %d", commits)
	}
	if locks < n {
		t.Fatalf("locks %d", locks)
	}
	t.Logf("aborts under contention: %d", aborts)
}

func TestConflictingNeighbors(t *testing.T) {
	// Activities lock their item and both neighbors; with dense items
	// this forces conflicts but must still complete exactly once each.
	const n = 1000
	ex := NewExecutor(n+2, 8)
	results := make([]atomic.Int32, n+2)
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i + 1)
	}
	err := ex.Run(items, func(ctx *Ctx, item int32) error {
		for _, id := range []int32{item - 1, item, item + 1} {
			if !ctx.Acquire(id) {
				return ErrConflict
			}
		}
		results[item].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if results[i].Load() != 1 {
			t.Fatalf("item %d ran %d times", i, results[i].Load())
		}
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	ex := NewExecutor(10, 1)
	// First run: operator aborts once, then succeeds; the lock it held
	// before aborting must have been released for the retry to work.
	tries := 0
	err := ex.Run([]int32{1}, func(ctx *Ctx, item int32) error {
		if !ctx.Acquire(item) {
			return ErrConflict
		}
		tries++
		if tries == 1 {
			return ErrConflict
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tries != 2 {
		t.Fatalf("tries %d", tries)
	}
	if ex.Stats.Aborts.Load() != 1 || ex.Stats.Commits.Load() != 1 {
		t.Fatalf("stats commits=%d aborts=%d", ex.Stats.Commits.Load(), ex.Stats.Aborts.Load())
	}
	if ex.Stats.WastedNs.Load() <= 0 || ex.Stats.CommittedNs.Load() <= 0 {
		t.Fatal("work accounting missing")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	ex := NewExecutor(10, 4)
	boom := errTest{}
	err := ex.Run([]int32{1, 2, 3, 4}, func(ctx *Ctx, item int32) error {
		if item == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
}

type errTest struct{}

func (errTest) Error() string { return "boom" }

func TestEmptyRun(t *testing.T) {
	ex := NewExecutor(10, 4)
	if err := ex.Run(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// A one-worker run stays on the caller's goroutine: it forks nothing, so
// its cost does not depend on whether an idle processor wakes in time.
func TestSingleWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	ex := NewExecutor(8, 1)
	seen := 0
	err := ex.Run([]int32{1, 2, 3, 4}, func(*Ctx, int32) error {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("operator sees %d goroutines, the caller had %d", n, before)
		}
		seen++
		return nil
	})
	if err != nil || seen != 4 {
		t.Fatalf("err=%v, processed %d of 4", err, seen)
	}
}

// Items are handed out in chunks of 32, so a list of at most 32 has work
// for one worker: it must run as a one-worker phase does, on the caller
// under tag 1, whatever the executor's width. A longer list still forks.
func TestNoWorkersWithoutAChunk(t *testing.T) {
	ex := NewExecutor(256, 4)
	for _, n := range []int{1, 6, 32} {
		items := make([]int32, n)
		for i := range items {
			items[i] = int32(i)
		}
		before := runtime.NumGoroutine()
		seen := 0 // unsynchronised on purpose: -race fails if two workers run
		err := ex.Run(items, func(c *Ctx, _ int32) error {
			if c.Worker() != 1 {
				t.Errorf("%d items: an item ran under worker tag %d", n, c.Worker())
			}
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("%d items: operator sees %d goroutines, the caller had %d", n, g, before)
			}
			seen++
			return nil
		})
		if err != nil || seen != n {
			t.Fatalf("%d items: err=%v, processed %d", n, err, seen)
		}
	}
	var tags [5]atomic.Int32
	items := make([]int32, 33*4)
	if err := ex.Run(items, func(c *Ctx, _ int32) error {
		tags[c.Worker()].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := int32(0)
	for w := 1; w <= 4; w++ {
		total += tags[w].Load()
	}
	if total != int32(len(items)) {
		t.Fatalf("%d of %d items ran under worker tags 1..4", total, len(items))
	}
}
