package dacpara

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dacpara/internal/galois"
)

// TestNoGoroutineOutlivesRun: every engine, and the parallel refactor and
// resub passes, start their worker team once per run and must have ended
// it by the time Run returns — when the run succeeds, when its context is
// cancelled while the team is at work, when the retry budget runs out in
// the middle of a phase, and when every rung of a guarded job runs into
// the attempt deadline. (The operator-panic ending needs a pass that
// panics; internal/engine's TestTeamLifetime has it, for every skeleton.)
func TestNoGoroutineOutlivesRun(t *testing.T) {
	jobs := []Job{
		{Flow: "rf -p -w=3"}, {Flow: "rs -p -w=3"},
	}
	for _, e := range Engines() {
		jobs = append(jobs, Job{Engine: e, Workers: 3})
	}
	// goroutines returns the count once it holds still (a helper that has
	// taken its leave is, for an instant, still on its way out); back
	// waits, for a bounded time, until it reads base again.
	goroutines := func() int {
		for {
			n := runtime.NumGoroutine()
			time.Sleep(2 * time.Millisecond)
			if runtime.NumGoroutine() == n {
				return n
			}
		}
	}
	back := func(t *testing.T, base int) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() != base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
			}
		}
	}
	for _, job := range jobs {
		name := string(job.Engine) + job.Flow
		t.Run(name+"/success", func(t *testing.T) {
			net, err := Generate("voter", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			base := goroutines()
			if _, err := Run(context.Background(), net, job, Hooks{}); err != nil {
				t.Fatal(err)
			}
			back(t, base)
		})
		t.Run(name+"/cancelled", func(t *testing.T) {
			net, err := Generate("voter", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			long := job
			if long.Flow != "" {
				for i := 0; i < 63; i++ {
					long.Flow += "; " + job.Flow
				}
			} else {
				long.Passes, long.ZeroGain = 500, true
			}
			base := goroutines()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(10*time.Millisecond, cancel) // a runtime timer, not a goroutine
			_, err = Run(ctx, net, long, Hooks{})
			timer.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want the run cancelled at work", err)
			}
			back(t, base)
		})
		if job.Engine != EngineDACPara && job.Engine != EngineLockPar {
			continue // the other runs take no locks a fault plan could refuse
		}
		t.Run(name+"/budget", func(t *testing.T) {
			net, err := Generate("voter", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			base := goroutines()
			_, err = Run(context.Background(), net, job, Hooks{Attach: Config{
				Fault: &galois.FaultPlan{Seed: 2, AbortRate: 1}, RetryBudget: 8,
			}})
			var rbe *galois.RetryBudgetError
			if !errors.As(err, &rbe) {
				t.Fatalf("err = %v, want *galois.RetryBudgetError", err)
			}
			back(t, base)
		})
	}
	// The guard's deadline stops an attempt, it does not abandon it: three
	// rungs (dacpara, iccad18, abc) of 500 passes each are cut short at
	// 10 ms, and none of them is still running when Run reports the
	// ladder exhausted.
	t.Run("guard-deadline", func(t *testing.T) {
		net, err := Generate("voter", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		base := goroutines()
		out, err := Run(context.Background(), net, Job{
			Engine: EngineDACPara, Workers: 3, Passes: 500, ZeroGain: true,
			Guard: true, GuardDeadlineNs: int64(10 * time.Millisecond),
		}, Hooks{})
		if !errors.Is(err, ErrGuardExhausted) {
			t.Fatalf("err = %v, want the ladder exhausted", err)
		}
		for _, a := range out.Reports[0].Attempts {
			if !a.TimedOut {
				t.Errorf("rung %s: %+v, want it timed out", a.Engine, a)
			}
		}
		back(t, base)
	})
}
