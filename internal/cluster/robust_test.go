package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dacpara"
)

func TestCheckpointDedupIdempotent(t *testing.T) {
	var hookCalls atomic.Int64
	c := NewCoordinator(testConfig(), Hooks{
		OnCheckpoint: func(string, int, string, []byte) { hookCalls.Add(1) },
	})
	defer c.Close()
	c.register("w1")
	c.register("w2")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, []byte("input"))
	hdr, _ := acquireFor(t, c, "w1")

	// The same (step, digest) uploaded three times — a network duplicate
	// — applies and journals exactly once.
	for i := 0; i < 3; i++ {
		if !c.uploadCheckpoint("j1", hdr.Lease, 1, "d1", []byte("ck1")) {
			t.Fatalf("upload %d rejected", i)
		}
	}
	if m := c.Metrics(); m.CheckpointsUploaded != 1 || m.DupSuppressed != 2 {
		t.Fatalf("uploaded %d dup %d, want 1/2", m.CheckpointsUploaded, m.DupSuppressed)
	}
	if n := hookCalls.Load(); n != 1 {
		t.Fatalf("OnCheckpoint fired %d times, want 1", n)
	}
	// A different digest at the same step is new content, not a dup.
	if !c.uploadCheckpoint("j1", hdr.Lease, 1, "d2", []byte("ck1'")) {
		t.Fatal("revised checkpoint rejected")
	}
	if m := c.Metrics(); m.CheckpointsUploaded != 2 {
		t.Fatalf("uploaded %d, want 2", m.CheckpointsUploaded)
	}
	c.uploadResult("j1", hdr.Lease, resultHeader{}, nil)
	waitOutcome(t, out)
}

func TestResultDuplicateIdempotent(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)
	hdr, _ := acquireFor(t, c, "w1")

	if !c.uploadResult("j1", hdr.Lease, resultHeader{}, []byte("res")) {
		t.Fatal("first result rejected")
	}
	// A duplicate of the very upload that finished the job answers OK
	// (idempotent for its sender) without completing the job twice.
	if !c.uploadResult("j1", hdr.Lease, resultHeader{}, []byte("res")) {
		t.Fatal("duplicate of the completing upload rejected")
	}
	// A different lease is a stale worker, not a duplicate: refused.
	if c.uploadResult("j1", "w1#e1#999", resultHeader{}, []byte("stale")) {
		t.Fatal("stale lease completed a finished job")
	}
	if m := c.Metrics(); m.CompletedRemote != 1 || m.DupSuppressed != 1 {
		t.Fatalf("completed %d dup %d, want 1/1", m.CompletedRemote, m.DupSuppressed)
	}
	o := waitOutcome(t, out)
	if o.err != nil || string(o.res.AIGER) != "res" {
		t.Fatalf("outcome = %+v, %v", o.res, o.err)
	}
}

func TestReRegistrationFencesLease(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	c.register("w2")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, []byte("input"))
	hdr, _ := acquireFor(t, c, "w1")
	if !strings.Contains(hdr.Lease, "#e1#") {
		t.Fatalf("lease %q does not carry epoch 1", hdr.Lease)
	}

	// w1 comes back from the dead (restart, healed partition) and
	// registers again: the old session's lease is fenced immediately —
	// the coordinator does not wait out the lease timer.
	c.register("w1")
	if _, valid := c.heartbeat("j1", "w1", hdr.Lease); valid {
		t.Fatal("fenced lease still heartbeats")
	}
	if c.uploadResult("j1", hdr.Lease, resultHeader{}, []byte("zombie")) {
		t.Fatal("fenced lease completed the job")
	}
	m := c.Metrics()
	if m.FencedLeases != 1 || m.Requeued != 1 {
		t.Fatalf("fenced %d requeued %d, want 1/1", m.FencedLeases, m.Requeued)
	}
	// The job went straight back on the queue; the new epoch appears in
	// the next lease w1 takes.
	hdr2, _ := acquireFor(t, c, "w1")
	if hdr2.Task.Attempt != 2 || !strings.Contains(hdr2.Lease, "#e2#") {
		t.Fatalf("refenced lease = %q attempt %d", hdr2.Lease, hdr2.Task.Attempt)
	}
	c.uploadResult("j1", hdr2.Lease, resultHeader{}, nil)
	waitOutcome(t, out)
}

func TestFlappingWorkerQuarantined(t *testing.T) {
	cfg := testConfig()
	cfg.FlapThreshold = 2
	cfg.MaxAttempts = 5
	c := NewCoordinator(cfg, Hooks{})
	defer c.Close()
	c.register("w1")
	c.register("w2")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)

	// w1 takes the lease and loses it to expiry, twice in a row.
	for i := 0; i < 2; i++ {
		hdr, _ := acquireFor(t, c, "w1")
		if hdr.Task.Attempt != i+1 {
			t.Fatalf("flap %d: attempt %d", i, hdr.Task.Attempt)
		}
		c.sweep(time.Now().Add(c.cfg.Lease + time.Second))
	}
	m := c.Metrics()
	if m.LeasesExpired != 2 || m.Quarantined != 1 {
		t.Fatalf("expired %d quarantined %d, want 2/1", m.LeasesExpired, m.Quarantined)
	}
	// Quarantined: w1 may poll but gets no work, and its metrics row
	// says why.
	if _, _, ok := c.acquire("w1"); ok {
		t.Fatal("quarantined worker got a lease")
	}
	var sawRow bool
	for _, row := range m.Workers {
		if row.ID == "w1" {
			sawRow = true
			if row.State != "quarantined" {
				t.Fatalf("w1 state = %q, want quarantined", row.State)
			}
		}
	}
	if !sawRow {
		t.Fatal("no metrics row for w1")
	}
	// The healthy worker picks the job up and finishes it.
	hdr, _ := acquireFor(t, c, "w2")
	if hdr.Task.Attempt != 3 {
		t.Fatalf("survivor attempt = %d, want 3", hdr.Task.Attempt)
	}
	c.uploadResult("j1", hdr.Lease, resultHeader{}, nil)
	o := waitOutcome(t, out)
	if o.err != nil || o.res.Worker != "w2" {
		t.Fatalf("outcome = %+v, %v", o.res, o.err)
	}
}

func TestSkewGraceExtendsExpiry(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)
	_, _ = acquireFor(t, c, "w1")

	// Simulate a worker whose observed heartbeat cadence overshoots the
	// advertised one by 4s (slow link, skewed clock): the adaptive grace
	// pads expiry by exactly that overshoot.
	c.mu.Lock()
	c.workers["w1"].maxHBGap = c.cfg.Heartbeat + 4*time.Second
	c.mu.Unlock()
	c.sweep(time.Now().Add(c.cfg.Lease + 2*time.Second))
	if m := c.Metrics(); m.LeasesExpired != 0 {
		t.Fatal("lease expired inside the skew grace")
	}
	// Past lease + grace the worker really is dead.
	c.sweep(time.Now().Add(c.cfg.Lease + 5*time.Second))
	if m := c.Metrics(); m.LeasesExpired != 1 {
		t.Fatal("lease survived past its grace")
	}
	o := waitOutcome(t, out)
	var lost *WorkersLostError
	if !errors.As(o.err, &lost) {
		t.Fatalf("outcome err = %v, want WorkersLostError", o.err)
	}
}

func TestSkewGraceDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.SkewGrace = -1
	c := NewCoordinator(cfg, Hooks{})
	defer c.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1"}, nil)
	_, _ = acquireFor(t, c, "w1")
	c.mu.Lock()
	c.workers["w1"].maxHBGap = time.Hour // would grant a huge adaptive grace
	c.mu.Unlock()
	c.sweep(time.Now().Add(c.cfg.Lease + time.Second))
	if m := c.Metrics(); m.LeasesExpired != 1 {
		t.Fatal("negative SkewGrace did not disable the grace")
	}
	waitOutcome(t, out)
}

func TestVerifyBlobDigestCheck(t *testing.T) {
	_, blob, digest := mustVoter(t)
	if err := verifyBlob("result", "j1", digest, blob); err != nil {
		t.Fatalf("intact blob rejected: %v", err)
	}
	if err := verifyBlob("result", "j1", "", blob); err != nil {
		t.Fatalf("empty want must skip the check: %v", err)
	}
	// One flipped byte mid-blob: caught, typed, attributed.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x20
	err := verifyBlob("checkpoint", "j1", digest, bad)
	var corrupt *BlobCorruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("corrupt blob error = %v, want BlobCorruptError", err)
	}
	if corrupt.Kind != "checkpoint" || corrupt.Job != "j1" || corrupt.Want != digest {
		t.Fatalf("corrupt = %+v", corrupt)
	}
	// Undecodable garbage reports without a Got digest.
	err = verifyBlob("input", "j2", digest, []byte("not aiger at all"))
	if !errors.As(err, &corrupt) || corrupt.Got != "" {
		t.Fatalf("garbage blob error = %v", err)
	}
}

func TestUpload422OnCorruptBlobOverHTTP(t *testing.T) {
	c := NewCoordinator(testConfig(), Hooks{})
	defer c.Close()
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c.register("w1")
	out := dispatchAsync(c, context.Background(), Task{Job: "j1", Req: dacpara.Job{Flow: "b"}}, nil)
	hdr, _ := acquireFor(t, c, "w1")
	_, blob, digest := mustVoter(t)

	post := func(path string, q url.Values, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path+"?"+q.Encode(), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	ckQ := url.Values{"job": {"j1"}, "lease": {hdr.Lease}, "step": {"1"}, "digest": {digest}}
	resQ := url.Values{"job": {"j1"}, "lease": {hdr.Lease}, "digest": {digest}}
	// A checkpoint whose bytes do not hash to the declared digest is
	// refused with 422 before it can touch job state.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x20
	if code := post("/cluster/checkpoint", ckQ, bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt checkpoint = HTTP %d, want 422", code)
	}
	if code := post("/cluster/checkpoint", ckQ, blob); code != http.StatusOK {
		t.Fatalf("intact checkpoint = HTTP %d, want 200", code)
	}
	// Same for results (framed body).
	var frame bytes.Buffer
	if err := writeFramed(&frame, resultHeader{}, bad); err != nil {
		t.Fatal(err)
	}
	if code := post("/cluster/result", resQ, frame.Bytes()); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt result = HTTP %d, want 422", code)
	}
	frame.Reset()
	if err := writeFramed(&frame, resultHeader{}, blob); err != nil {
		t.Fatal(err)
	}
	if code := post("/cluster/result", resQ, frame.Bytes()); code != http.StatusOK {
		t.Fatalf("intact result = HTTP %d, want 200", code)
	}
	if m := c.Metrics(); m.CorruptBlobs != 2 || m.CheckpointsUploaded != 1 || m.CompletedRemote != 1 {
		t.Fatalf("corrupt %d ck %d done %d, want 2/1/1", m.CorruptBlobs, m.CheckpointsUploaded, m.CompletedRemote)
	}
	waitOutcome(t, out)
}

func TestWorkerBreakerReRegisters(t *testing.T) {
	c := NewCoordinator(fleetConfig(), Hooks{})
	defer c.Close()
	mux := http.NewServeMux()
	c.RegisterRoutes(mux)
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			clusterError(w, http.StatusServiceUnavailable, "partitioned")
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	w := NewWorker(WorkerOptions{
		Coordinator:      ts.URL,
		ID:               "a",
		RPCTimeout:       2 * time.Second,
		Retry:            Retry{Base: 2 * time.Millisecond, Cap: 10 * time.Millisecond},
		BreakerThreshold: 3,
		BreakerCooldown:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	waitFor(t, 5*time.Second, "worker never registered", func() bool { return w.Registered() })

	// Coordinator becomes unreachable: after BreakerThreshold failed
	// polls the worker stops hammering and probes instead.
	down.Store(true)
	waitFor(t, 5*time.Second, "breaker never tripped", func() bool { return w.BreakerTrips() >= 1 })

	// Partition heals: one probe re-registers the worker cleanly and it
	// goes back to doing real work.
	down.Store(false)
	waitFor(t, 5*time.Second, "worker never re-registered", func() bool { return w.ReRegistered() >= 1 })
	_, input, digest := mustVoter(t)
	res, err := c.Dispatch(context.Background(), Task{
		Job: "j1",
		Req: dacpara.Job{Flow: "b", Workers: 1, InputDigest: digest},
	}, input)
	if err != nil || res.Worker != "a" {
		t.Fatalf("post-heal dispatch = %+v, %v", res, err)
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
