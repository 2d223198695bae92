package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dacpara"
	"dacpara/internal/aig"
)

// WorkerOptions configures one pull-based worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// ID is the worker's stable identity; it names the worker in leases,
	// journal records and metrics rows.
	ID string
	// Heartbeat overrides the coordinator-advertised heartbeat cadence
	// (0: use the advertised value).
	Heartbeat time.Duration
	// RPCTimeout bounds each individual RPC attempt (default 10s), so a
	// hung coordinator connection can never stall the worker loop.
	RPCTimeout time.Duration
	// Retry is the backoff policy for upload RPCs (zero value: the
	// documented Retry defaults with 4 attempts).
	Retry Retry
	// BreakerThreshold is how many consecutive poll failures trip the
	// worker's circuit breaker (default 8; negative disables it). An
	// open breaker stops hammering the (likely partitioned) coordinator
	// and probes with single registration attempts every
	// BreakerCooldown until the link heals.
	BreakerThreshold int
	// BreakerCooldown is the open-breaker probe interval (default
	// 2×Retry.Cap).
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// errLeaseGone is the worker-side signal that the coordinator no longer
// recognizes this lease: the job was re-assigned, cancelled, or timed
// out, and the only correct move is to abandon it without uploading
// anything further.
var errLeaseGone = errors.New("cluster: lease gone; abandoning job")

// Worker pulls jobs from a coordinator, runs them through the local
// engine stack, heartbeats while running, uploads flow checkpoints at
// step boundaries, and streams the result back. All communication runs
// under deadlines and capped-backoff retry; a worker that cannot reach
// the coordinator keeps retrying until its context ends.
type Worker struct {
	opts   WorkerOptions
	client *http.Client

	// Parameters learned at registration.
	heartbeat time.Duration
	pollWait  time.Duration

	killed   atomic.Bool
	killc    chan struct{}
	killOnce sync.Once

	registered   atomic.Bool
	executed     atomic.Int64
	breakerTrips atomic.Int64
	reRegistered atomic.Int64
}

// NewWorker builds a worker; Run starts it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 10 * time.Second
	}
	if opts.Retry.Attempts == 0 {
		opts.Retry.Attempts = 4
	}
	opts.Retry.AttemptTimeout = opts.RPCTimeout
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 8
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 2 * opts.Retry.withDefaults().Cap
	}
	w := &Worker{
		opts:   opts,
		client: opts.Client,
		killc:  make(chan struct{}),
	}
	if w.client == nil {
		w.client = &http.Client{}
	}
	return w
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.opts.ID }

// Registered reports whether the worker has completed first contact.
func (w *Worker) Registered() bool { return w.registered.Load() }

// Executed returns how many jobs this worker has run to an uploaded
// result.
func (w *Worker) Executed() int64 { return w.executed.Load() }

// BreakerTrips returns how many times the worker's circuit breaker
// opened (consecutive poll failures hit the threshold).
func (w *Worker) BreakerTrips() int64 { return w.breakerTrips.Load() }

// ReRegistered returns how many times the worker re-registered after
// an open breaker healed.
func (w *Worker) ReRegistered() int64 { return w.reRegistered.Load() }

// Kill simulates a crash: from this moment the worker sends nothing —
// no heartbeats, no failure report, no result — and abandons whatever
// it is running, exactly as a kill -9 would. The coordinator finds out
// the only way it ever can: the lease stops being renewed.
func (w *Worker) Kill() {
	w.killOnce.Do(func() {
		w.killed.Store(true)
		close(w.killc)
	})
}

// Run is the worker loop: register, then pull-execute until ctx ends or
// the worker is killed. The returned error is the ctx error (nil after
// a Kill, which is a simulated crash, not a failure of Run).
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.killc:
			cancel()
		case <-ctx.Done():
		}
	}()

	if err := w.register(ctx); err != nil {
		if w.killed.Load() {
			return nil
		}
		return err
	}
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			if w.killed.Load() {
				return nil
			}
			return err
		}
		hdr, input, err := w.poll(ctx)
		if err != nil {
			if ctx.Err() != nil {
				continue // loop classifies it at the top
			}
			// Coordinator unreachable: back off and keep trying — a worker
			// outliving a coordinator restart rejoins by itself.
			failures++
			if th := w.opts.BreakerThreshold; th > 0 && failures >= th {
				w.breakerWait(ctx)
				failures = 0
				continue
			}
			delay := w.opts.Retry.Backoff(failures - 1)
			var ra *afterError
			if errors.As(err, &ra) {
				if delay = ra.after; delay > w.opts.Retry.withDefaults().Cap {
					delay = w.opts.Retry.withDefaults().Cap
				}
			}
			select {
			case <-ctx.Done():
			case <-time.After(delay):
			}
			continue
		}
		failures = 0
		if hdr == nil {
			continue // empty poll
		}
		w.execute(ctx, hdr, input)
	}
}

// breakerWait is the open state of the worker's circuit breaker: after
// too many consecutive poll failures the worker stops hammering the
// (likely partitioned) coordinator and instead probes with one
// registration attempt per cooldown. A successful probe re-registers
// the worker cleanly — the coordinator starts a new epoch and fences
// whatever lease the pre-partition session still held — and closes the
// breaker.
func (w *Worker) breakerWait(ctx context.Context) {
	w.breakerTrips.Add(1)
	probe := w.opts.Retry
	probe.Attempts = 1
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(w.opts.BreakerCooldown):
		}
		if w.killed.Load() {
			return
		}
		if err := w.registerWith(ctx, probe); err == nil {
			w.reRegistered.Add(1)
			return
		}
	}
}

// register performs first contact, retrying until it succeeds or ctx
// ends, and adopts the coordinator's failure-detector parameters.
func (w *Worker) register(ctx context.Context) error {
	policy := w.opts.Retry
	policy.Attempts = 0 // keep trying: a worker with no coordinator has nothing else to do
	return w.registerWith(ctx, policy)
}

// registerWith is register under a caller-chosen policy (the breaker
// probes with a single attempt).
func (w *Worker) registerWith(ctx context.Context, policy Retry) error {
	return policy.Do(ctx, func(ctx context.Context) error {
		body, _ := json.Marshal(map[string]string{"worker": w.opts.ID})
		resp, err := w.do(ctx, "/cluster/register", nil, "application/json", body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return httpError("register", resp)
		}
		var reg registration
		if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
			return err
		}
		w.heartbeat = time.Duration(reg.HeartbeatNs)
		if w.opts.Heartbeat > 0 {
			w.heartbeat = w.opts.Heartbeat
		}
		if w.heartbeat <= 0 {
			w.heartbeat = 5 * time.Second
		}
		w.pollWait = time.Duration(reg.PollWaitNs)
		if w.pollWait <= 0 {
			w.pollWait = 10 * time.Second
		}
		w.registered.Store(true)
		return nil
	})
}

// httpError converts a non-OK coordinator reply into a retryable
// error. When the server states its own wait (Retry-After on 429/503
// and friends), the error carries it so Retry.Do sleeps the stated
// time instead of guessing with backoff.
func httpError(op string, resp *http.Response) error {
	err := fmt.Errorf("cluster: %s: HTTP %d", op, resp.StatusCode)
	if after, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
		return RetryAfter(after, err)
	}
	return err
}

// parseRetryAfter accepts both Retry-After forms: delta-seconds and an
// HTTP date.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// poll long-polls for one task; (nil, nil, nil) means none arrived.
func (w *Worker) poll(ctx context.Context) (*pollHeader, []byte, error) {
	// The request must outlive the coordinator's hold time.
	pctx, cancel := context.WithTimeout(ctx, w.pollWait+w.opts.RPCTimeout)
	defer cancel()
	resp, err := w.do(pctx, "/cluster/poll", url.Values{"worker": {w.opts.ID}}, "", nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil, nil
	case http.StatusOK:
		var hdr pollHeader
		blob, err := readFramed(resp.Body, &hdr, Config{}.withDefaults().MaxBlobBytes)
		if err != nil {
			return nil, nil, err
		}
		return &hdr, blob, nil
	default:
		return nil, nil, httpError("poll", resp)
	}
}

// execute runs one leased task to an uploaded result (or a reported
// failure, or a silent abandon when the lease is lost or the worker is
// killed). It owns the heartbeat goroutine for the task's lifetime.
func (w *Worker) execute(ctx context.Context, hdr *pollHeader, input []byte) {
	if w.killed.Load() {
		return // crashed between poll and execute; the lease will expire
	}
	task, lease := hdr.Task, hdr.Lease
	// Verify the streamed input against the digest the lease declared
	// for it before spending any compute: a corrupted transfer is a
	// typed failure report (the attempt requeues with a fresh transfer),
	// never a silently wrong answer.
	if err := verifyBlob("input", task.Job, task.BlobDigest, input); err != nil {
		w.uploadFail(ctx, task.Job, lease, err.Error())
		return
	}
	net, err := aig.Read(bytes.NewReader(input))
	if err != nil {
		w.uploadFail(ctx, task.Job, lease, "decoding input: "+err.Error())
		return
	}

	// jobCtx cancels the engine when the heartbeat loop learns the lease
	// is gone or the job was cancelled; abandoned records why.
	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	var abandoned atomic.Bool
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(w.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-jobCtx.Done():
				return
			case <-t.C:
			}
			if w.killed.Load() {
				return
			}
			switch w.sendHeartbeat(jobCtx, task.Job, lease) {
			case "ok", "retry":
				// Transient trouble is fine: the lease tolerates missed
				// beats for a whole lease duration.
			default: // "cancel" or lease gone
				abandoned.Store(true)
				cancelJob()
				return
			}
		}
	}()

	hooks := dacpara.Hooks{
		ResumeStep: task.ResumeStep,
		Checkpoint: func(completed int, n *dacpara.Network) error {
			return w.uploadCheckpoint(jobCtx, task.Job, lease, completed, n)
		},
		Attach: dacpara.Config{Metrics: dacpara.NewMetrics()},
	}
	out, runErr := dacpara.Run(jobCtx, net, task.Req, hooks)
	close(stopHB)
	hbWG.Wait()

	if w.killed.Load() || abandoned.Load() || ctx.Err() != nil {
		return // crashed, superseded, or shutting down: say nothing
	}
	if runErr != nil {
		if !errors.Is(runErr, errLeaseGone) {
			w.uploadFail(ctx, task.Job, lease, runErr.Error())
		}
		return
	}
	// The digest declared for the upload is that of the shipped bytes,
	// which is what the coordinator re-parses and checks.
	blob, digest, err := dacpara.Encode(out.Net, true)
	if err != nil {
		w.uploadFail(ctx, task.Job, lease, "encoding result: "+err.Error())
		return
	}
	if err := w.uploadResult(ctx, task.Job, lease, resultHeader{Result: out.Result, Verify: out.Verify}, blob, digest); err == nil {
		w.executed.Add(1)
	}
	// An upload that never got through is deliberate silence: the lease
	// expires and the job reruns elsewhere, which beats a half-reported
	// result.
}

// sendHeartbeat posts one proof of life; returns "ok", "cancel",
// "gone", or "retry" (transient transport trouble).
func (w *Worker) sendHeartbeat(ctx context.Context, job, lease string) string {
	hctx, cancel := context.WithTimeout(ctx, w.opts.RPCTimeout)
	defer cancel()
	resp, err := w.do(hctx, "/cluster/heartbeat", url.Values{
		"worker": {w.opts.ID}, "job": {job}, "lease": {lease},
	}, "", nil)
	if err != nil {
		return "retry"
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var reply heartbeatReply
		if json.NewDecoder(resp.Body).Decode(&reply) == nil && reply.Status == "cancel" {
			return "cancel"
		}
		return "ok"
	case http.StatusGone:
		return "gone"
	default:
		return "retry"
	}
}

// uploadCheckpoint ships one flow-step state to the coordinator. A gone
// lease aborts the flow (errLeaseGone); transient upload failure is
// swallowed after the retry budget — losing a checkpoint degrades
// failover granularity, it must not fail a healthy job.
func (w *Worker) uploadCheckpoint(ctx context.Context, job, lease string, step int, n *dacpara.Network) error {
	blob, digest, err := dacpara.Encode(n, true)
	if err != nil {
		return nil // un-serializable state: skip the checkpoint, keep the job
	}
	err = w.opts.Retry.Do(ctx, func(ctx context.Context) error {
		resp, err := w.do(ctx, "/cluster/checkpoint", url.Values{
			"job": {job}, "lease": {lease},
			"step": {strconv.Itoa(step)}, "digest": {digest},
		}, "application/octet-stream", blob)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusGone:
			return Permanent(errLeaseGone)
		default:
			// 422 (blob corrupt in transit) lands here too: the local
			// copy is intact, so a resend is exactly the right cure.
			return httpError("checkpoint", resp)
		}
	})
	if errors.Is(err, errLeaseGone) {
		return err
	}
	return nil
}

// uploadResult streams the finished job back under retry, declaring
// the result blob's structural digest so the coordinator can reject a
// transfer corrupted on the wire (422 → resend from the intact copy).
func (w *Worker) uploadResult(ctx context.Context, job, lease string, hdr resultHeader, aiger []byte, digest string) error {
	var body bytes.Buffer
	if err := writeFramed(&body, hdr, aiger); err != nil {
		return err
	}
	return w.opts.Retry.Do(ctx, func(ctx context.Context) error {
		resp, err := w.do(ctx, "/cluster/result", url.Values{
			"job": {job}, "lease": {lease}, "digest": {digest},
		}, "application/octet-stream", body.Bytes())
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusGone:
			return Permanent(errLeaseGone)
		default:
			return httpError("result", resp)
		}
	})
}

// uploadFail reports a job failure under retry; best-effort (if it
// never arrives, the lease expires and tells the same story).
func (w *Worker) uploadFail(ctx context.Context, job, lease, msg string) {
	w.opts.Retry.Do(ctx, func(ctx context.Context) error {
		resp, err := w.do(ctx, "/cluster/fail", url.Values{"job": {job}, "lease": {lease}}, "text/plain", []byte(msg))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			return Permanent(errLeaseGone)
		}
		if resp.StatusCode != http.StatusOK {
			return httpError("fail", resp)
		}
		return nil
	})
}

// do issues one coordinator RPC. A killed worker sends nothing, ever.
func (w *Worker) do(ctx context.Context, path string, q url.Values, contentType string, body []byte) (*http.Response, error) {
	if w.killed.Load() {
		return nil, errors.New("cluster: worker killed")
	}
	u := w.opts.Coordinator + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return w.client.Do(req)
}
