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
// cancelled while the team is at work, under a fault plan that refuses
// every lock (iccad18 runs out of retries in the middle of a phase), and
// when the run's context reaches its deadline.
// (The operator-panic ending needs a pass that panics; internal/engine's
// TestTeamLifetime has it, for every skeleton.)
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
			continue
		}
		// iccad18 runs out of retries under a plan that refuses every lock;
		// dacpara, on a team of the same width, takes no lock to refuse and
		// succeeds.
		t.Run(name+"/budget", func(t *testing.T) {
			net, err := Generate("voter", ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			base := goroutines()
			_, err = Run(context.Background(), net, job, Hooks{Attach: Config{
				Fault: &galois.FaultPlan{Seed: 2, AbortRate: 1, RetryBudget: 8},
			}})
			var rbe *galois.RetryBudgetError
			if locks := job.Engine == EngineLockPar; locks && !errors.As(err, &rbe) || !locks && err != nil {
				t.Fatalf("err = %v, want *galois.RetryBudgetError from iccad18 only", err)
			}
			back(t, base)
		})
	}
	// A deadline stops the run, it does not abandon it: 500 passes are cut
	// short at 10 ms, and nothing of them is still running when Run
	// returns the deadline's error.
	t.Run("deadline", func(t *testing.T) {
		net, err := Generate("voter", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		base := goroutines()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		out, err := Run(ctx, net, Job{Engine: EngineDACPara, Workers: 3, Passes: 500, ZeroGain: true}, Hooks{})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the run stopped at its deadline", err)
		}
		if !out.Result.Incomplete {
			t.Errorf("result %+v of a stopped run is not marked incomplete", out.Result)
		}
		back(t, base)
	})
}
