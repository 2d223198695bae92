package galois

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settle returns once every helper of the team has parked.
func settle(team *Team) {
	for i := range team.helpers {
		for !team.helpers[i].parked.Load() {
			time.Sleep(spinBudget)
		}
	}
}

// goroutines returns the goroutine count once it holds still: helpers of
// teams that earlier tests closed may still be on their way out.
func goroutines() int {
	for {
		n := runtime.NumGoroutine()
		time.Sleep(2 * time.Millisecond)
		if runtime.NumGoroutine() == n {
			return n
		}
	}
}

// goroutinesBack fails the test unless the goroutine count comes back to
// base: a helper that has taken its leave is, for an instant, still on
// its way out, so the count is polled, yielding, for a bounded time.
func goroutinesBack(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// Every phase runs each of its participants exactly once, never a helper
// above its width, whether the helpers are spinning or parked when it is
// published, and whatever the phase before it looked like.
func TestTeamPhases(t *testing.T) {
	const workers = 5
	team := NewTeam(workers)
	defer team.Close()
	var ran [workers + 1]atomic.Int32
	phase := func(n int) {
		t.Helper()
		for i := range ran {
			ran[i].Store(0)
		}
		if err := team.Do(n, func(w int) { ran[w].Add(1) }); err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= workers; w++ {
			want := int32(0)
			if w <= n {
				want = 1
			}
			if got := ran[w].Load(); got != want {
				t.Fatalf("phase of %d: worker %d ran %d times, want %d", n, w, got, want)
			}
		}
	}
	for round := 0; round < 200; round++ {
		for n := 1; n <= workers; n++ {
			phase(n)
		}
	}
	for _, n := range []int{3, 5, 2, 5} {
		settle(team)
		phase(n)
	}
	// A parked helper that a phase does not need stays parked.
	settle(team)
	phase(2)
	for i := 1; i < len(team.helpers); i++ {
		if !team.helpers[i].parked.Load() {
			t.Fatalf("a phase of 2 woke worker %d", i+2)
		}
	}
}

// The barrier orders the workers' plain writes before the caller's reads.
func TestTeamBarrierOrdersWrites(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var slot [5]struct {
		n int
		_ [56]byte
	}
	for round := 1; round <= 2000; round++ {
		if err := team.Do(4, func(w int) { slot[w].n++ }); err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 4; w++ {
			if slot[w].n != round { // unsynchronised: -race checks the claim
				t.Fatalf("round %d: worker %d wrote %d", round, w, slot[w].n)
			}
		}
	}
}

func TestTeamPanicBecomesError(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	for _, bad := range []int{1, 3} { // the caller, a helper
		err := team.Do(3, func(w int) {
			if w == bad {
				panic(fmt.Sprint("worker ", w))
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != fmt.Sprint("worker ", bad) || len(pe.Stack) == 0 {
			t.Fatalf("panic on worker %d: err = %v", bad, err)
		}
		// The team is whole again.
		var ran atomic.Int32
		if err := team.Do(3, func(int) { ran.Add(1) }); err != nil || ran.Load() != 3 {
			t.Fatalf("after a panic on worker %d: err=%v, %d of 3 ran", bad, err, ran.Load())
		}
	}
}

// Close ends every helper, spinning or parked, and a team of one never
// starts any.
func TestTeamCloseEndsHelpers(t *testing.T) {
	base := goroutines()
	for _, parked := range []bool{false, true} {
		team := NewTeam(6)
		if got := runtime.NumGoroutine(); got != base+5 {
			t.Fatalf("a team of 6 runs %d goroutines beside the caller, want 5", got-base)
		}
		if err := team.Do(6, func(int) {}); err != nil {
			t.Fatal(err)
		}
		if parked {
			settle(team)
		}
		team.Close()
		goroutinesBack(t, base, fmt.Sprintf("closed (parked=%v)", parked))
	}
	solo := NewTeam(1)
	defer solo.Close()
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("a team of one started %d goroutines", got-base)
	}
	if err := solo.Do(1, func(w int) {
		if w != 1 {
			t.Errorf("worker %d on a team of one", w)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// The helpers are started once: an operator sees the same number of
// goroutines in every phase, shared or inline, short list or long.
func TestNoGoroutinePerPhase(t *testing.T) {
	want := goroutines() + 2 // the two helpers of the team below
	ex := newExecutor(t, 4096, 3)
	for _, n := range []int{2, 600, 40, 1, 2000, 17} {
		saw := make([]int, n+1) // by item: no two activities share one
		err := ex.RunCtx(context.Background(), sequentialItems(n), func(_ *Ctx, item int32) error {
			saw[item] = runtime.NumGoroutine()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for item := 1; item <= n; item++ {
			if saw[item] != want {
				t.Fatalf("list of %d: the operator on item %d saw %d goroutines, want %d", n, item, saw[item], want)
			}
		}
	}
}

// A team eight wide on one processor, with stalls and a lock-hold delay
// that put workers to sleep mid-phase: waiting must yield, and give up
// spinning by the clock, or the phases would never end.
func TestTeamOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 400
	ex := newExecutor(t, n+2, 8)
	ex.Fault = &FaultPlan{
		Seed: 5, AbortRate: 0.2, StallRate: 0.05, StallFor: 50 * time.Microsecond,
		LockHoldDelay: 5 * time.Microsecond, ShuffleWorklist: true,
	}
	sum := make([]int32, n+2) // sum[i] is protected by lock i
	start := time.Now()
	for round := 0; round < 20; round++ {
		err := ex.RunCtx(context.Background(), sequentialItems(n), func(c *Ctx, item int32) error {
			for _, id := range []int32{item - 1, item, item + 1} {
				if !c.Acquire(id) {
					return ErrConflict
				}
			}
			sum[item]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		if sum[i] != 20 {
			t.Fatalf("item %d committed %d times in 20 rounds", i, sum[i])
		}
	}
	t.Logf("20 rounds of %d items, 8 workers on one processor: %v", n, time.Since(start))
}

// A worker counts into its own Stats; the totals must hold every activity
// by the time RunCtx returns, however it returns.
func TestStatsFoldedOnEveryReturn(t *testing.T) {
	errStop := errors.New("stop")
	cases := []struct {
		name string
		at   func(cancel func()) // what the operator does at item 300
		is   func(error) bool
	}{
		{"success", func(func()) {}, func(err error) bool { return err == nil }},
		{"error", nil, func(err error) bool { return err == errStop }},
		{"cancelled", func(cancel func()) { cancel() }, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panic", func(func()) { panic("boom") }, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe)
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				ex := newExecutor(t, 1001, workers)
				ex.Fault = &FaultPlan{Seed: 3, AbortRate: 0.3}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Operator-side counts: calls that returned nil, calls
				// that returned a conflict, locks it was granted.
				var commits, aborts, locks, refused atomic.Int64
				err := ex.RunCtx(ctx, sequentialItems(1000), func(c *Ctx, item int32) error {
					if !c.Acquire(item) {
						refused.Add(1)
						aborts.Add(1)
						return ErrConflict
					}
					locks.Add(1)
					if item == 300 {
						if tc.at == nil {
							return errStop
						}
						tc.at(cancel) // a panic is neither a commit nor an abort
					}
					commits.Add(1)
					return nil
				})
				if !tc.is(err) {
					t.Fatalf("err = %v", err)
				}
				got := ex.Stats
				if got.Commits != commits.Load() || got.Aborts != aborts.Load() ||
					got.LocksTaken != locks.Load() || got.LockFailures != refused.Load() ||
					got.InjectedAborts != refused.Load() {
					t.Fatalf("executor %+v; operators saw commits=%d aborts=%d locks=%d refused=%d",
						got, commits.Load(), aborts.Load(), locks.Load(), refused.Load())
				}
				if got.Commits > 0 && got.CommittedNs <= 0 || got.Aborts > 0 && got.WastedNs <= 0 {
					t.Fatalf("work time missing: %+v", got)
				}
				for w := range ex.local {
					if ex.local[w].Stats != (Stats{}) {
						t.Fatalf("worker %d keeps unfolded counters %+v", w, ex.local[w].Stats)
					}
				}
			})
		}
	}
}

// BenchmarkPhaseDispatch is what a phase costs beyond its work, at two
// workers, for the two ways a list is handed to the team. executor: an
// empty operator under the speculative executor — the commit phase — over
// lists of 3 items (stays on the caller), 8 (a level of a deep arithmetic
// circuit), 85 (one MtM level) and 1 000. sweep: empty enumerate and
// evaluate hooks driven straight by the team the way engine.Run's
// lock-free sweep drives them — Split, a chunk off the cursor, the two
// hooks over it between chunk clocks — over 8, 85 and 1 000.
func BenchmarkPhaseDispatch(b *testing.B) {
	for _, n := range []int{3, 8, 85, 1000} {
		b.Run(fmt.Sprint("executor/", n), func(b *testing.B) {
			ex := newExecutor(b, int32(n+1), 2)
			items := sequentialItems(n)
			op := func(*Ctx, int32) error { return nil }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.RunCtx(context.Background(), items, op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 85, 1000} {
		b.Run(fmt.Sprint("sweep/", n), func(b *testing.B) {
			team := NewTeam(2)
			defer team.Close()
			items := sequentialItems(n)
			enumerate := func(int, int32) {}
			evaluate := func(int, int32) bool { return true }
			var work [3]struct {
				enumNs, evalNs, evals int64
				_                     [40]byte
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workers, cur := team.Split(n)
				err := team.Do(workers, func(worker int) {
					w := &work[worker]
					for {
						lo, hi, ok := cur.Next()
						if !ok {
							return
						}
						c0 := time.Now()
						for _, id := range items[lo:hi] {
							enumerate(worker, id)
						}
						c1 := time.Now()
						for _, id := range items[lo:hi] {
							if evaluate(worker, id) {
								w.evals++
							}
						}
						w.enumNs += c1.Sub(c0).Nanoseconds()
						w.evalNs += time.Since(c1).Nanoseconds()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
