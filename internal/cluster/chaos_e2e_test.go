package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/chaos"
)

// chaosScenario is one seeded fault pattern driven through a live
// two-worker fleet.
type chaosScenario struct {
	name string
	plan func(seed int64) chaos.Plan
	// middleware additionally wraps the coordinator handler in the same
	// plan, injecting response-side faults the transport cannot.
	middleware bool
	// slow picks the long three-step flow (needed when faults must land
	// mid-job, e.g. delays that outlive a lease).
	slow bool
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{name: "drop", plan: func(seed int64) chaos.Plan {
			return chaos.Plan{Seed: seed, DropRate: 0.12}
		}},
		{name: "delay-past-lease", slow: true, plan: func(seed int64) chaos.Plan {
			// A delayed RPC stalls the worker's sequential heartbeat loop
			// past the 400ms lease: the sweeper expires it and the job
			// fails over mid-flow.
			return chaos.Plan{Seed: seed, DelayDist: chaos.Delay{Rate: 0.06, Base: 500 * time.Millisecond, Jitter: 300 * time.Millisecond}}
		}},
		{name: "duplicate-upload", plan: func(seed int64) chaos.Plan {
			return chaos.Plan{Seed: seed, DupRate: 0.6}
		}},
		{name: "corrupt-blob", middleware: true, plan: func(seed int64) chaos.Plan {
			return chaos.Plan{Seed: seed, CorruptRate: 0.25}
		}},
		{name: "partition", slow: true, plan: func(seed int64) chaos.Plan {
			// Asymmetric: worker a loses its requests for a stretch;
			// worker b sends fine but gets no responses for another.
			return chaos.Plan{Seed: seed, Partitions: []chaos.Window{
				{Worker: "a", From: 4, To: 16},
				{Worker: "b", From: 8, To: 14, Direction: chaos.DirResponse},
			}}
		}},
		{name: "flapping-worker", slow: true, plan: func(seed int64) chaos.Plan {
			// Worker a keeps dying mid-job: three separate blackouts, each
			// long enough to lose a lease. The coordinator should
			// quarantine it rather than keep feeding it attempts.
			return chaos.Plan{Seed: seed, Partitions: []chaos.Window{
				{Worker: "a", From: 3, To: 40},
				{Worker: "a", From: 45, To: 80},
				{Worker: "a", From: 85, To: 120},
			}}
		}},
	}
}

func chaosConfig() Config {
	return Config{
		Lease:         400 * time.Millisecond,
		Heartbeat:     40 * time.Millisecond,
		Sweep:         20 * time.Millisecond,
		MaxAttempts:   8,
		PollWait:      50 * time.Millisecond,
		LiveWindow:    time.Hour,
		FlapThreshold: 3,
		Quarantine:    2 * time.Second,
	}
}

// TestChaosE2E drives every fault scenario across three seeds and
// checks the cluster's robustness contract: every job reaches a
// terminal state, every completed result is equivalent to the input,
// no attempt budget is exceeded, no checkpoint is double-applied, and
// the recorded fault schedule is a pure function of the seed.
func TestChaosE2E(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range chaosScenarios() {
		for _, seed := range seeds {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				runChaosScenario(t, sc, seed)
			})
		}
	}
}

func runChaosScenario(t *testing.T, sc chaosScenario, seed int64) {
	plan := sc.plan(seed)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()

	// Checkpoint double-apply detector: the coordinator promises the
	// OnCheckpoint hook fires at most once per (job, attempt, step,
	// digest) no matter how the network duplicates the upload.
	var ckMu sync.Mutex
	ckApplied := map[string]int{}
	c := NewCoordinator(cfg, Hooks{
		OnCheckpoint: func(job string, step int, digest string, aiger []byte) {
			ckMu.Lock()
			ckApplied[fmt.Sprintf("%s|%d|%s", job, step, digest)]++
			ckMu.Unlock()
		},
	})
	defer c.Close()
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	var handler http.Handler = mux
	var mw *chaos.Middleware
	if sc.middleware {
		mw = chaos.NewMiddleware(plan, mux)
		handler = mw
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	transports := make([]*chaos.Transport, 2)
	for i, id := range []string{"a", "b"} {
		tr := chaos.NewTransport(plan, nil, id)
		transports[i] = tr
		w := NewWorker(WorkerOptions{
			Coordinator:      ts.URL,
			ID:               id,
			RPCTimeout:       2 * time.Second,
			Retry:            Retry{Base: 5 * time.Millisecond, Cap: 40 * time.Millisecond},
			BreakerThreshold: 4,
			BreakerCooldown:  30 * time.Millisecond,
			Client:           &http.Client{Transport: tr},
		})
		go w.Run(ctx)
	}
	waitFor(t, 10*time.Second, "workers never joined", func() bool { return c.LiveWorkers() >= 1 })

	golden, input, digest := mustVoter(t)
	req := dacpara.Job{Flow: "b", Workers: 1, InputDigest: digest}
	if sc.slow {
		// Three steps with a long zero-gain middle: leases can expire and
		// checkpoints matter.
		req = dacpara.Job{Flow: "b; rw -z; b", Workers: 2, Passes: 30, ZeroGain: true, InputDigest: digest}
	}

	// Two jobs through the storm.
	type outcome struct {
		res *RemoteResult
		err error
	}
	outs := make([]chan outcome, 2)
	for i := range outs {
		out := make(chan outcome, 1)
		outs[i] = out
		job := fmt.Sprintf("j%d", i+1)
		go func() {
			dctx, dcancel := context.WithTimeout(ctx, 90*time.Second)
			defer dcancel()
			res, err := c.Dispatch(dctx, Task{Job: job, Req: req, BlobDigest: digest}, input)
			out <- outcome{res, err}
		}()
	}
	for i, out := range outs {
		select {
		case o := <-out:
			if o.err != nil {
				// Terminal, typed degradation is acceptable under heavy
				// chaos; a hang or an untyped error is not.
				var exhausted *AttemptsExhaustedError
				var lost *WorkersLostError
				if !errors.As(o.err, &exhausted) && !errors.As(o.err, &lost) {
					t.Fatalf("job %d: untyped failure: %v", i+1, o.err)
				}
				continue
			}
			if o.res.Attempt > cfg.MaxAttempts {
				t.Fatalf("job %d: attempt %d exceeded budget %d", i+1, o.res.Attempt, cfg.MaxAttempts)
			}
			// A done result must decode and stay CEC-equivalent to the
			// submitted circuit — corruption must never survive to here.
			net, err := aig.Read(bytes.NewReader(o.res.AIGER))
			if err != nil {
				t.Fatalf("job %d: result undecodable: %v", i+1, err)
			}
			if _, err := dacpara.Verify(golden, net, 0); err != nil {
				t.Fatalf("job %d: result not equivalent: %v", i+1, err)
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("job %d never reached a terminal state", i+1)
		}
	}

	// No checkpoint content was applied twice.
	ckMu.Lock()
	for key, n := range ckApplied {
		if n > 1 {
			t.Errorf("checkpoint %s applied %d times", key, n)
		}
	}
	ckMu.Unlock()

	// Determinism: every fault the run recorded re-derives from the
	// plan alone — the schedule is a pure function of (seed, stream,
	// call index), so a failing seed replays byte-for-byte.
	for _, tr := range transports {
		for _, e := range tr.Trace() {
			if r := plan.Replay(e); r.String() != e.String() {
				t.Fatalf("trace not reproducible: %s vs %s", e, r)
			}
		}
	}
	if mw != nil {
		for _, e := range mw.Trace() {
			if r := plan.Replay(e); r.String() != e.String() {
				t.Fatalf("middleware trace not reproducible: %s vs %s", e, r)
			}
		}
	}
}
