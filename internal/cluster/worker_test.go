package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/aig"
)

// startFleet brings up a coordinator behind a real HTTP server plus n
// workers pulling from it, all torn down with the test.
func startFleet(t *testing.T, cfg Config, n int) (*Coordinator, []*Worker) {
	t.Helper()
	c := NewCoordinator(cfg, Hooks{})
	t.Cleanup(c.Close)
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker(WorkerOptions{
			Coordinator: ts.URL,
			ID:          string(rune('a' + i)),
			RPCTimeout:  2 * time.Second,
			Retry:       Retry{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
		})
		workers[i] = w
		go w.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", c.LiveWorkers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c, workers
}

func fleetConfig() Config {
	return Config{
		Lease:       2 * time.Second,
		Heartbeat:   50 * time.Millisecond,
		Sweep:       25 * time.Millisecond,
		MaxAttempts: 3,
		PollWait:    100 * time.Millisecond,
		LiveWindow:  time.Hour, // worker loss is driven by lease expiry in these tests
	}
}

func mustVoter(t *testing.T) (*dacpara.Network, []byte, string) {
	t.Helper()
	net, err := dacpara.Generate("voter", dacpara.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return net, buf.Bytes(), aig.StructuralDigest(net)
}

func TestWorkerRunsEngineJobOverHTTP(t *testing.T) {
	c, _ := startFleet(t, fleetConfig(), 1)
	golden, input, digest := mustVoter(t)

	res, err := c.Dispatch(context.Background(), Task{
		Job: "j1",
		Req: dacpara.Job{
			Engine: dacpara.EngineDACPara, Workers: 2,
			Verify: true, VerifyBudget: 50_000, InputDigest: digest,
		},
	}, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != "a" || res.Attempt != 1 {
		t.Fatalf("result from %s attempt %d", res.Worker, res.Attempt)
	}
	if res.Verify == nil || !res.Verify.Equivalent {
		t.Fatalf("worker-side verify = %+v", res.Verify)
	}
	out, err := aig.Read(bytes.NewReader(res.AIGER))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("remote result not equivalent: %v", err)
	}
	if res.Result.FinalAnds <= 0 || res.Result.FinalAnds > res.Result.InitialAnds {
		t.Fatalf("implausible result record: %+v", res.Result)
	}
}

func TestWorkerRunsFlowWithCheckpoints(t *testing.T) {
	c, _ := startFleet(t, fleetConfig(), 1)
	golden, input, digest := mustVoter(t)

	res, err := c.Dispatch(context.Background(), Task{
		Job: "jf",
		Req: dacpara.Job{Flow: "b; rw; b", Workers: 2, InputDigest: digest},
	}, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Engine != "flow" || res.Result.Passes != 3 {
		t.Fatalf("flow summary = %+v", res.Result)
	}
	// Every step boundary uploaded a checkpoint.
	if got := c.Metrics().CheckpointsUploaded; got != 3 {
		t.Fatalf("checkpoints uploaded = %d, want 3", got)
	}
	out, err := aig.Read(bytes.NewReader(res.AIGER))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("flow result not equivalent: %v", err)
	}
}

func TestWorkerReportsEngineFailure(t *testing.T) {
	c, _ := startFleet(t, fleetConfig(), 1)
	_, _, digest := mustVoter(t)

	// An unparseable input blob fails on the worker, burns the attempt
	// budget, and comes back as a terminal failure.
	_, err := c.Dispatch(context.Background(), Task{
		Job: "jbad",
		Req: dacpara.Job{Engine: dacpara.EngineDACPara, InputDigest: digest},
	}, []byte("this is not AIGER"))
	var exhausted *AttemptsExhaustedError
	if !errors.As(err, &exhausted) {
		t.Fatalf("Dispatch = %v, want AttemptsExhaustedError", err)
	}
}

func TestKilledWorkerFailsOverMidJob(t *testing.T) {
	c, workers := startFleet(t, fleetConfig(), 2)
	golden, input, digest := mustVoter(t)

	// A slow middle step (repeated zero-gain passes, ~10s under -race)
	// gives the kill a wide window after the first checkpoint upload
	// while keeping the retried attempt affordable.
	outc := make(chan dispatchOutcome, 1)
	go func() {
		res, err := c.Dispatch(context.Background(), Task{
			Job: "jk",
			Req: dacpara.Job{Flow: "b; rw -z; b", Workers: 2, Passes: 30, ZeroGain: true, InputDigest: digest},
		}, input)
		outc <- dispatchOutcome{res, err}
	}()

	// Wait for the first checkpoint (step 1 done, slow step 2 running),
	// find the lease holder, and crash it.
	deadline := time.Now().Add(10 * time.Second)
	var holder string
	for holder == "" {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint/lease appeared")
		}
		m := c.Metrics()
		if m.CheckpointsUploaded >= 1 {
			for _, row := range m.Workers {
				if row.State == "busy" && row.Job == "jk" {
					holder = row.ID
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, w := range workers {
		if w.ID() == holder {
			w.Kill()
		}
	}

	o := waitOutcomeLong(t, outc, 120*time.Second)
	if o.err != nil {
		t.Fatalf("Dispatch after failover = %v", o.err)
	}
	if o.res.Worker == holder {
		t.Fatalf("job finished on the killed worker %s", holder)
	}
	if o.res.Attempt < 2 {
		t.Fatalf("attempt = %d, want >= 2 (failover consumed a lease)", o.res.Attempt)
	}
	out, err := aig.Read(bytes.NewReader(o.res.AIGER))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("failover result not equivalent: %v", err)
	}
	m := c.Metrics()
	if m.LeasesExpired < 1 || m.Requeued < 1 {
		t.Fatalf("counters after failover: %+v", m)
	}
}

func waitOutcomeLong(t *testing.T, ch chan dispatchOutcome, d time.Duration) dispatchOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(d):
		t.Fatal("Dispatch did not return")
		return dispatchOutcome{}
	}
}
