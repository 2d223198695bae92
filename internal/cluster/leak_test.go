package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/chaos"
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

// requireBaseline fails the test if the goroutine count does not settle
// back to the pre-test baseline (with a little slack for runtime
// internals that appear lazily).
func requireBaseline(t *testing.T, baseline int) {
	t.Helper()
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

// TestNoLeakAfterPartitionHeal drives a worker through a chaos-injected
// network partition that later heals, lets it finish a job, then tears
// everything down and checks the goroutine count returns to baseline —
// a leak here means a long-poll loop, heartbeat goroutine, or breaker
// probe outlived its worker.
func TestNoLeakAfterPartitionHeal(t *testing.T) {
	baseline := stableGoroutines()

	cfg := Config{
		Lease:       time.Second,
		Heartbeat:   50 * time.Millisecond,
		Sweep:       25 * time.Millisecond,
		MaxAttempts: 8,
		PollWait:    50 * time.Millisecond,
		LiveWindow:  time.Hour,
	}
	c := NewCoordinator(cfg, Hooks{})
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)

	// Worker "a" is fully partitioned for its calls [2, 12): its early
	// polls (and possibly a mid-job heartbeat burst) vanish, the breaker
	// may trip, and the window then heals for good.
	plan := chaos.Plan{Seed: 42, Partitions: []chaos.Window{{Worker: "a", From: 2, To: 12}}}
	w := NewWorker(WorkerOptions{
		Coordinator:      ts.URL,
		ID:               "a",
		RPCTimeout:       2 * time.Second,
		Retry:            Retry{Base: 5 * time.Millisecond, Cap: 40 * time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		Client:           &http.Client{Transport: chaos.NewTransport(plan, nil, "a")},
	})
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); w.Run(ctx) }()
	waitFor(t, 5*time.Second, "worker never joined", func() bool { return c.LiveWorkers() == 1 })

	_, input, digest := mustVoter(t)
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	res, err := c.Dispatch(dctx, Task{
		Job: "jheal",
		Req: dacpara.Job{Flow: "b", Workers: 1, InputDigest: digest},
	}, input)
	dcancel()
	if err != nil || res == nil {
		t.Fatalf("dispatch through partition = %+v, %v", res, err)
	}

	cancel()
	<-runDone
	ts.Close()
	c.Close()
	requireBaseline(t, baseline)
}

// TestNoLeakAfterCoordinatorShutdown kills the coordinator out from
// under idle long-polling workers (the SIGTERM story), lets them spin
// against the dead address for a moment, then stops them and checks
// nothing leaked: every poll loop, retry sleep and breaker probe must
// be cancellable.
func TestNoLeakAfterCoordinatorShutdown(t *testing.T) {
	baseline := stableGoroutines()

	cfg := Config{
		Lease:       time.Second,
		Heartbeat:   50 * time.Millisecond,
		Sweep:       25 * time.Millisecond,
		MaxAttempts: 3,
		PollWait:    50 * time.Millisecond,
		LiveWindow:  time.Hour,
	}
	c := NewCoordinator(cfg, Hooks{})
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)

	ctx, cancel := context.WithCancel(context.Background())
	done := make([]chan struct{}, 2)
	workers := make([]*Worker, 2)
	for i := range workers {
		w := NewWorker(WorkerOptions{
			Coordinator:      ts.URL,
			ID:               string(rune('a' + i)),
			RPCTimeout:       time.Second,
			Retry:            Retry{Base: 5 * time.Millisecond, Cap: 40 * time.Millisecond},
			BreakerThreshold: 3,
			BreakerCooldown:  20 * time.Millisecond,
		})
		workers[i] = w
		done[i] = make(chan struct{})
		go func(d chan struct{}) { defer close(d); w.Run(ctx) }(done[i])
	}
	waitFor(t, 5*time.Second, "workers never joined", func() bool { return c.LiveWorkers() == 2 })

	// SIGTERM: the coordinator's server goes away mid-long-poll. The
	// workers' polls fail, their breakers open, and the probe loop keeps
	// knocking on a dead door.
	c.Close()
	ts.Close()
	time.Sleep(200 * time.Millisecond) // let polls fail and breakers trip

	cancel()
	for _, d := range done {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatal("worker Run did not exit after cancel")
		}
	}
	requireBaseline(t, baseline)
}
