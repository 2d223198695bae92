package galois

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// newExecutor returns an executor on a team of its own, closed when the
// test ends.
func newExecutor(t testing.TB, capacity int32, workers int) *Executor {
	team := NewTeam(workers)
	t.Cleanup(team.Close)
	return NewExecutor(capacity, team)
}

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
	ex := newExecutor(t, 1000, 8)
	items := make([]int32, 500)
	for i := range items {
		items[i] = int32(i)
	}
	var counts [500]atomic.Int32
	err := ex.RunCtx(context.Background(), items, func(ctx *Ctx, item int32) error {
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
	if ex.Stats.Commits != 500 {
		t.Fatalf("commits %d", ex.Stats.Commits)
	}
}

// TestSpeculativeCounterIncrements is the classic irregular-parallelism
// exercise: every activity locks a shared cell and a private cell; the
// executor must serialize the shared updates through conflicts and
// retries without losing any.
func TestSpeculativeCounterIncrements(t *testing.T) {
	const n = 2000
	ex := newExecutor(t, n+1, 8)
	var shared int64 // protected by lock 0, not by atomics
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i + 1)
	}
	err := ex.RunCtx(context.Background(), items, func(ctx *Ctx, item int32) error {
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
	commits, aborts, locks := ex.Stats.Commits, ex.Stats.Aborts, ex.Stats.LocksTaken
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
	ex := newExecutor(t, n+2, 8)
	results := make([]atomic.Int32, n+2)
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i + 1)
	}
	err := ex.RunCtx(context.Background(), items, func(ctx *Ctx, item int32) error {
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
	ex := newExecutor(t, 10, 1)
	// First run: operator aborts once, then succeeds; the lock it held
	// before aborting must have been released for the retry to work.
	tries := 0
	err := ex.RunCtx(context.Background(), []int32{1}, func(ctx *Ctx, item int32) error {
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
	if ex.Stats.Aborts != 1 || ex.Stats.Commits != 1 {
		t.Fatalf("stats commits=%d aborts=%d", ex.Stats.Commits, ex.Stats.Aborts)
	}
	if ex.Stats.WastedNs <= 0 || ex.Stats.CommittedNs <= 0 {
		t.Fatal("work accounting missing")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	ex := newExecutor(t, 10, 4)
	boom := errTest{}
	err := ex.RunCtx(context.Background(), []int32{1, 2, 3, 4}, func(ctx *Ctx, item int32) error {
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
	ex := newExecutor(t, 10, 4)
	if err := ex.RunCtx(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
}

// A one-worker run stays on the caller's goroutine: it forks nothing, so
// its cost does not depend on whether an idle processor wakes in time.
func TestSingleWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	ex := newExecutor(t, 8, 1)
	seen := 0
	err := ex.RunCtx(context.Background(), []int32{1, 2, 3, 4}, func(*Ctx, int32) error {
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

// A list shorter than the inline cutoff is not worth sharing, and a list
// that makes one chunk has work for one worker: both run as a one-worker
// phase does, on the caller under tag 1, whatever the team's width — and
// no helper is woken for them. A longer list is shared, in chunks of a
// quarter of a worker's share.
func TestNoWorkersWithoutAChunk(t *testing.T) {
	ex := newExecutor(t, 4096, 4)
	settle(ex.Team) // every helper parked: a wake-up would show
	for _, n := range []int{1, 2, inlineCutoff - 1} {
		items := make([]int32, n)
		for i := range items {
			items[i] = int32(i)
		}
		seen := 0 // unsynchronised on purpose: -race fails if two workers run
		err := ex.RunCtx(context.Background(), items, func(c *Ctx, _ int32) error {
			if c.Worker() != 1 {
				t.Errorf("%d items: an item ran under worker tag %d", n, c.Worker())
			}
			seen++
			return nil
		})
		if err != nil || seen != n {
			t.Fatalf("%d items: err=%v, processed %d", n, err, seen)
		}
		for i := range ex.Team.helpers {
			if !ex.Team.helpers[i].parked.Load() {
				t.Fatalf("%d items: helper %d was woken", n, i+2)
			}
		}
	}
	for _, tc := range []struct{ n, workers, chunk int }{
		{1, 1, 1}, {inlineCutoff - 1, 1, 1}, {inlineCutoff, 4, 1}, {10, 4, 1}, {85, 4, 5}, {1000, 4, 32},
	} {
		if w, c := ex.Team.Split(tc.n); w != tc.workers || c.chunk != tc.chunk {
			t.Errorf("Split(%d) = %d workers, chunks of %d; want %d, %d", tc.n, w, c.chunk, tc.workers, tc.chunk)
		}
	}
	// Twenty items on 32 workers make twenty chunks of one: twelve
	// workers would find nothing, so they are not part of the phase.
	wide := NewTeam(32)
	defer wide.Close()
	if w, c := wide.Split(20); w != 20 || c.chunk != 1 {
		t.Errorf("Split(20) on 32 workers = %d workers, chunks of %d; want 20, 1", w, c.chunk)
	}
	var tags [5]atomic.Int32
	items := make([]int32, 33*4)
	if err := ex.RunCtx(context.Background(), items, func(c *Ctx, _ int32) error {
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
