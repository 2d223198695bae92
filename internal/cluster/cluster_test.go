package cluster

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dacpara"
)

// testConfig keeps the failure detector fully manual: leases are long
// relative to test execution and the sweeper ticks far in the future,
// so only explicit sweep(now) calls with synthetic clocks fire it.
func testConfig() Config {
	return Config{
		Lease:       10 * time.Second,
		Heartbeat:   3 * time.Second,
		Sweep:       time.Hour,
		MaxAttempts: 3,
		PollWait:    50 * time.Millisecond,
		// Wide liveness window: these tests expire leases with synthetic
		// sweep clocks and must not age out the surviving workers too.
		LiveWindow: time.Hour,
	}
}

type dispatchOutcome struct {
	res *RemoteResult
	err error
}

// dispatchAsync runs Dispatch in the background and returns its outcome
// channel.
func dispatchAsync(c *Coordinator, ctx context.Context, t Task, input []byte) chan dispatchOutcome {
	out := make(chan dispatchOutcome, 1)
	go func() {
		res, err := c.Dispatch(ctx, t, input)
		out <- dispatchOutcome{res, err}
	}()
	return out
}

func waitOutcome(t *testing.T, ch chan dispatchOutcome) dispatchOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(5 * time.Second):
		t.Fatal("Dispatch did not return")
		return dispatchOutcome{}
	}
}

// acquireFor pulls the pending task as workerID, polling briefly
// because Dispatch enqueues from another goroutine.
func acquireFor(t *testing.T, c *Coordinator, workerID string) (*pollHeader, []byte) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if hdr, blob, ok := c.acquire(workerID); ok {
			return hdr, blob
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("worker %s found no pending task", workerID)
	return nil, nil
}

// waitPending blocks until n tasks sit on the dispatch queue.
func waitPending(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Metrics().Pending >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d pending tasks", n)
}

func TestDispatchNoWorkers(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	_, err := c.Dispatch(context.Background(), Task{Job: "j1"}, []byte("x"))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Dispatch = %v, want ErrNoWorkers", err)
	}
}

func TestLeaseExpiryFailsOverToSurvivor(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	c.register("w2")

	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, []byte("input"))
	hdr, blob := acquireFor(t, c, "w1")
	if hdr.Task.Attempt != 1 || string(blob) != "input" {
		t.Fatalf("first lease: attempt %d, blob %q", hdr.Task.Attempt, blob)
	}

	// w1 goes silent for a whole lease: the sweeper expires the lease and
	// requeues the job for the surviving worker.
	c.sweep(time.Now().Add(c.cfg.Lease + time.Second))
	hdr2, blob2 := acquireFor(t, c, "w2")
	if hdr2.Task.Attempt != 2 || string(blob2) != "input" {
		t.Fatalf("failover lease: attempt %d, blob %q", hdr2.Task.Attempt, blob2)
	}
	// w1's stale lease must not be able to finish the job anymore.
	if c.uploadResult("j1", hdr.Lease, resultHeader{}, []byte("stale")) {
		t.Fatal("stale lease completed the job")
	}
	if !c.uploadResult("j1", hdr2.Lease, resultHeader{}, []byte("fresh")) {
		t.Fatal("fresh lease rejected")
	}
	o := waitOutcome(t, out)
	if o.err != nil || string(o.res.AIGER) != "fresh" || o.res.Worker != "w2" || o.res.Attempt != 2 {
		t.Fatalf("outcome = %+v, %v", o.res, o.err)
	}
	m := c.Metrics()
	if m.LeasesExpired != 1 || m.Requeued != 1 || m.CompletedRemote != 1 {
		t.Fatalf("counters: expired %d requeued %d completed %d", m.LeasesExpired, m.Requeued, m.CompletedRemote)
	}
}

func TestHeartbeatJitterTolerance(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	c.register("w2")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)
	hdr, _ := acquireFor(t, c, "w1")

	// Two consecutive missed heartbeats (2 × Heartbeat < Lease) must not
	// cost the lease...
	c.sweep(time.Now().Add(2*c.cfg.Heartbeat + time.Second))
	if c.Metrics().LeasesExpired != 0 {
		t.Fatal("lease expired within its tolerance window")
	}
	// ...and one heartbeat resets the whole window.
	if status, valid := c.heartbeat("j1", "w1", hdr.Lease); !valid || status != "ok" {
		t.Fatalf("heartbeat = %q/%v", status, valid)
	}
	c.sweep(time.Now().Add(c.cfg.Lease - time.Second))
	if c.Metrics().LeasesExpired != 0 {
		t.Fatal("lease expired despite a fresh heartbeat")
	}
	if !c.uploadResult("j1", hdr.Lease, resultHeader{}, nil) {
		t.Fatal("result rejected")
	}
	waitOutcome(t, out)
}

func TestHeartbeatWrongLeaseGone(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)
	hdr, _ := acquireFor(t, c, "w1")
	if _, valid := c.heartbeat("j1", "w1", "w1#999"); valid {
		t.Fatal("forged lease accepted")
	}
	if _, valid := c.heartbeat("nope", "w1", hdr.Lease); valid {
		t.Fatal("unknown job accepted")
	}
	c.uploadResult("j1", hdr.Lease, resultHeader{}, nil)
	waitOutcome(t, out)
}

func TestAttemptBudgetExhausted(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 2
	c := NewCoordinator(cfg, Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)

	hdr, _ := acquireFor(t, c, "w1")
	if !c.uploadFailure("j1", hdr.Lease, "segfault in pass 3") {
		t.Fatal("failure report rejected")
	}
	hdr2, _ := acquireFor(t, c, "w1") // requeued: attempt 2 of 2
	if hdr2.Task.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", hdr2.Task.Attempt)
	}
	c.uploadFailure("j1", hdr2.Lease, "segfault again")

	o := waitOutcome(t, out)
	var exhausted *AttemptsExhaustedError
	if !errors.As(o.err, &exhausted) {
		t.Fatalf("Dispatch = %v, want AttemptsExhaustedError", o.err)
	}
	if exhausted.Attempts != 2 || !strings.Contains(exhausted.LastErr, "segfault again") {
		t.Fatalf("exhausted = %+v", exhausted)
	}
	if m := c.Metrics(); m.AttemptsExhausted != 1 {
		t.Fatalf("attempts_exhausted = %d", m.AttemptsExhausted)
	}
}

func TestWorkersLostCarriesCheckpoint(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1", Req: dacpara.Job{Flow: "b; b"}}, []byte("input"))
	hdr, _ := acquireFor(t, c, "w1")
	if !c.uploadCheckpoint("j1", hdr.Lease, 1, "digest-1", []byte("after-step-1")) {
		t.Fatal("checkpoint rejected")
	}
	// The only worker dies: the job degrades to the caller, resuming from
	// the uploaded checkpoint rather than the original input.
	c.sweep(time.Now().Add(c.cfg.Lease + time.Second))
	o := waitOutcome(t, out)
	var lost *WorkersLostError
	if !errors.As(o.err, &lost) {
		t.Fatalf("Dispatch = %v, want WorkersLostError", o.err)
	}
	if lost.ResumeStep != 1 || string(lost.State) != "after-step-1" {
		t.Fatalf("lost = step %d state %q", lost.ResumeStep, lost.State)
	}
}

func TestPendingTaskDegradesWhenFleetEmpties(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	// Task enqueued but never acquired; the fleet then ages out entirely.
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, []byte("input"))
	waitPending(t, c, 1)
	c.sweep(time.Now().Add(c.cfg.LiveWindow + time.Second))
	o := waitOutcome(t, out)
	var lost *WorkersLostError
	if !errors.As(o.err, &lost) {
		t.Fatalf("Dispatch = %v, want WorkersLostError", o.err)
	}
	if lost.ResumeStep != 0 || string(lost.State) != "input" {
		t.Fatalf("lost = step %d state %q, want the original input", lost.ResumeStep, lost.State)
	}
}

func TestCancelDeliveredOnceViaHeartbeat(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	ctx, cancel := context.WithCancel(context.Background())
	out := dispatchAsync(c, ctx, Task{Job: "j1"}, nil)
	hdr, _ := acquireFor(t, c, "w1")
	cancel()
	o := waitOutcome(t, out)
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("Dispatch = %v, want context.Canceled", o.err)
	}
	// First heartbeat learns of the cancel; the next finds the lease gone.
	if status, valid := c.heartbeat("j1", "w1", hdr.Lease); !valid || status != "cancel" {
		t.Fatalf("heartbeat = %q/%v, want cancel", status, valid)
	}
	if _, valid := c.heartbeat("j1", "w1", hdr.Lease); valid {
		t.Fatal("cancelled lease still valid")
	}
	// A late result upload from the cancelled lease is discarded too.
	if c.uploadResult("j1", hdr.Lease, resultHeader{}, nil) {
		t.Fatal("cancelled lease completed the job")
	}
}

func TestCheckpointKeepsNewestStep(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, []byte("input"))
	hdr, _ := acquireFor(t, c, "w1")
	c.uploadCheckpoint("j1", hdr.Lease, 2, "d2", []byte("s2"))
	c.uploadCheckpoint("j1", hdr.Lease, 1, "d1", []byte("s1")) // out-of-order straggler
	c.mu.Lock()
	tk := c.tasks["j1"]
	step, state := tk.resumePoint()
	c.mu.Unlock()
	if step != 2 || string(state) != "s2" {
		t.Fatalf("resumePoint = %d/%q, want the newest checkpoint", step, state)
	}
	c.uploadResult("j1", hdr.Lease, resultHeader{}, nil)
	waitOutcome(t, out)
}

func TestFramedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := pollHeader{Task: Task{Job: "j7", Attempt: 2, ResumeStep: 1}, Lease: "w1#9"}
	blob := bytes.Repeat([]byte{0xAB}, 1000)
	if err := writeFramed(&buf, in, blob); err != nil {
		t.Fatal(err)
	}
	var got pollHeader
	outBlob, err := readFramed(bytes.NewReader(buf.Bytes()), &got, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got != in || !bytes.Equal(outBlob, blob) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Oversized blob is refused, not allocated.
	if _, err := readFramed(bytes.NewReader(buf.Bytes()), &got, 10); err == nil {
		t.Fatal("oversized blob accepted")
	}
	// A corrupt header length is refused.
	corrupt := append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, buf.Bytes()[4:]...)
	if _, err := readFramed(bytes.NewReader(corrupt), &got, 1<<20); err == nil {
		t.Fatal("corrupt header length accepted")
	}
}
