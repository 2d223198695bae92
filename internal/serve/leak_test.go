package serve

import (
	"runtime"
	"testing"
	"time"
)

// stableGoroutines samples runtime.NumGoroutine until two consecutive
// reads agree, giving transient runtime goroutines (GC, timer wheels,
// finished workers) a moment to park.
func stableGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestNoGoroutineLeakAfterCancelCycles submits and cancels jobs in a
// loop — some still queued, some mid-evaluation — then drains the
// service and checks the goroutine count returns to its baseline. A
// leak here would mean a worker, an engine goroutine pool, or a job
// context is being abandoned rather than shut down.
func TestNoGoroutineLeakAfterCancelCycles(t *testing.T) {
	const cycles = 20
	baseline := stableGoroutines()

	s, _, err := Open(Options{MaxConcurrent: 2, QueueLimit: 8, WorkersPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		j, err := s.Submit(slowRequest(t, 500))
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i%2 == 0 {
			// Cancel mid-evaluation: wait for the engine to start.
			waitState(t, j, StateRunning, 30*time.Second)
			time.Sleep(time.Duration(i%5) * time.Millisecond)
		}
		if _, err := s.Cancel(j.ID); err != nil {
			t.Fatalf("cycle %d cancel: %v", i, err)
		}
		waitDone(t, j, 30*time.Second)
		if st := j.State(); st != StateCancelled && st != StateDone {
			t.Fatalf("cycle %d: state %s", i, st)
		}
	}
	s.Drain(5 * time.Second)

	// The count should come back down to the pre-service baseline; allow
	// a little slack for runtime-internal goroutines that appear lazily.
	const slack = 3
	deadline := time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		if n := stableGoroutines(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
