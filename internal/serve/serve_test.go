package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"dacpara"
)

// slowRequest returns a submission that runs long enough (hundreds of
// milliseconds) to still be running while a test submits more work or
// cancels it: many passes over the tiny voter circuit.
func slowRequest(t *testing.T, passes int) JobRequest {
	return JobRequest{
		Job:     dacpara.Job{Engine: dacpara.EngineDACPara, Workers: 2, Passes: passes, ZeroGain: true},
		Network: mustGenerate(t, "voter"),
	}
}

func fastRequest(t *testing.T, name string) JobRequest {
	return JobRequest{
		Job:     dacpara.Job{Engine: dacpara.EngineDACPara, Workers: 2},
		Network: mustGenerate(t, name),
	}
}

func waitState(t *testing.T, j *Job, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s (err %q)", j.ID, j.State(), want, j.Status().Error)
}

func waitDone(t *testing.T, j *Job, timeout time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s not terminal after %v (state %s)", j.ID, timeout, j.State())
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 2, QueueLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	j, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 30*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if st.Output == nil || st.Output.Ands >= st.Input.Ands {
		t.Fatalf("no area reduction: %+v -> %+v", st.Input, st.Output)
	}
	if st.CacheHit {
		t.Fatal("first run flagged as cache hit")
	}
	if j.Metrics() == nil || j.Metrics().Schema != "dacpara-metrics/v1" {
		t.Fatalf("job metrics missing or mis-schemed: %+v", j.Metrics())
	}
}

func TestQueueFullTypedRejection(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2, WorkersPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	// One slow job occupies the single slot; two more fill the queue.
	running, err := s.Submit(slowRequest(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning, 30*time.Second)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(slowRequest(t, 40)); err != nil {
			t.Fatalf("queued submission %d rejected: %v", i, err)
		}
	}
	_, err = s.Submit(slowRequest(t, 40))
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow submission: got %v, want *QueueFullError", err)
	}
	if full.Limit != 2 {
		t.Fatalf("rejection limit = %d, want 2", full.Limit)
	}
	if got := s.Metrics().Jobs.Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestResultCacheHit(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	first, err := s.Submit(JobRequest{Job: dacpara.Job{Workers: 1}, Network: mustGenerate(t, "mult")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first, 30*time.Second)
	if first.Status().State != StateDone {
		t.Fatalf("first job: %+v", first.Status())
	}

	again, err := s.Submit(JobRequest{Job: dacpara.Job{Workers: 1}, Network: mustGenerate(t, "mult")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, again, 30*time.Second)
	st := again.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("identical resubmission not served from cache: %+v", st)
	}
	if string(again.Result().AIGER) != string(first.Result().AIGER) {
		t.Fatal("cache returned different bytes")
	}
	if hits := s.Metrics().Cache.Hits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// A knob that shapes the result is part of the key: no hit.
	other, err := s.Submit(JobRequest{Job: dacpara.Job{Workers: 1, ZeroGain: true}, Network: mustGenerate(t, "mult")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, other, 30*time.Second)
	if other.Status().CacheHit {
		t.Fatal("a zero-gain job served from the plain job's cache entry")
	}
}

// TestCacheHitKeepsVerify pins both orders of the verify/cache
// interaction. The cache key ignores the verification settings, so an
// unverified run and a verifying resubmission share an entry: the hit
// must still perform the check (against the cached bytes) and report its
// verdict, and a later verifying hit reuses that verdict. The other way
// round, a verified entry serves an unverifying job without a verdict it
// never asked for.
func TestCacheHitKeepsVerify(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	run := func(passes int, verify bool) JobStatus {
		t.Helper()
		j, err := s.Submit(JobRequest{Job: dacpara.Job{Workers: 1, Passes: passes, Verify: verify}, Network: mustGenerate(t, "mult")})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 30*time.Second)
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("passes %d verify=%t: %+v", passes, verify, st)
		}
		return st
	}

	// Unverified first, then verify=true on the same circuit.
	if st := run(1, false); st.CacheHit || st.Verify != nil {
		t.Fatalf("first unverified run: %+v", st)
	}
	for i := 0; i < 2; i++ { // the second hit reuses the stored verdict
		st := run(1, true)
		if !st.CacheHit {
			t.Fatalf("verifying resubmission %d not served from cache: %+v", i, st)
		}
		if st.Verify == nil || !st.Verify.Equivalent || !st.Verify.Proved {
			t.Fatalf("verifying cache hit %d dropped the check: verify = %+v", i, st.Verify)
		}
	}

	// Verified first, then an unverifying resubmission.
	if st := run(2, true); st.CacheHit || st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("first verified run: %+v", st)
	}
	if st := run(2, false); !st.CacheHit || st.Verify != nil {
		t.Fatalf("unverifying resubmission: %+v", st)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	blocker, err := s.Submit(slowRequest(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 30*time.Second)
	queued, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("job state = %s, want queued", queued.State())
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("state after cancel = %s", st)
	}
	if got := s.Metrics().Jobs.Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

func TestCancelRunningJobPromptly(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 4, WorkersPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	j, err := s.Submit(slowRequest(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 30*time.Second)
	// Let it get into the engine proper, then cancel mid-run.
	time.Sleep(30 * time.Millisecond)
	t0 := time.Now()
	if _, err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
	latency := time.Since(t0)
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state = %s (err %q), want cancelled", st.State, st.Error)
	}
	if st.Error == "" {
		t.Fatal("cancelled job should record the cancellation error")
	}
	// "Promptly" = at the next phase barrier / level boundary, which for
	// the tiny voter circuit is well under a second; the bound here is
	// generous for loaded CI machines.
	if latency > 5*time.Second {
		t.Fatalf("cancellation took %v", latency)
	}
}

func TestConcurrentJobs(t *testing.T) {
	// Sized to the machine: the fixed 8-job version raced its polled
	// Running==8 assertion on a 1-CPU -race runner, where a fast worker
	// could finish one 25-pass job and steal a second before the last slot
	// ever started — the counter then never reached 8. Now the job count
	// tracks GOMAXPROCS, the jobs are effectively unbounded (so none can
	// finish before the concurrency is observed), and the waits are
	// event-driven on each job's Started channel instead of sleeps.
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	s, _, err := Open(Options{MaxConcurrent: n, QueueLimit: n, WorkersPerJob: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := s.Submit(slowRequest(t, 5000))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		select {
		case <-j.Started():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %d never picked up by a scheduler slot (running=%d)", i, s.Metrics().Jobs.Running)
		}
	}
	// Every job has a slot and none can have finished, so the running
	// counter converges to n; the residual wait is only for the counter
	// increment that trails the Started close.
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Jobs.Running != int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("running = %d after all %d jobs started", s.Metrics().Jobs.Running, n)
		}
		time.Sleep(time.Millisecond)
	}
	for _, j := range jobs {
		if _, err := s.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		waitDone(t, j, 60*time.Second)
		if st := j.Status(); st.State != StateCancelled {
			t.Fatalf("job %d after cancel: %s (err %q)", i, st.State, st.Error)
		}
	}
}

func TestWorkerBudgetCapsRequests(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 2, QueueLimit: 2, WorkersPerJob: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	req := fastRequest(t, "voter")
	req.Workers = 64
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Status().Workers; got != 3 {
		t.Fatalf("workers = %d, want capped to 3", got)
	}
	waitDone(t, j, 30*time.Second)
}

func TestVerifySubmission(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	req := fastRequest(t, "sqrt")
	req.Verify = true
	req.VerifyBudget = 100_000
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("verify status: %+v", st.Verify)
	}
}

func TestDrainRejectsAndFinishes(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 2, QueueLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(slowRequest(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 30*time.Second)
	done := make(chan struct{})
	go func() { s.Drain(30 * time.Second); close(done) }()
	// Submissions during drain are rejected with the typed error.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := s.Submit(fastRequest(t, "voter"))
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain: %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish")
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("running job after graceful drain = %s, want done", st)
	}
}

func TestDrainCancelsAfterGrace(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 4, WorkersPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(slowRequest(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 30*time.Second)
	t0 := time.Now()
	s.Drain(50 * time.Millisecond)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("long job after impatient drain = %s, want cancelled", st)
	}
	if d := time.Since(t0); d > 30*time.Second {
		t.Fatalf("drain took %v", d)
	}
}

// TestTerminalJobReleasesItsNetwork: the record of a finished job stays
// for the life of the process, the graph it ran on does not — whichever
// way the job ended — and neither its status nor its result needs it.
func TestTerminalJobReleasesItsNetwork(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 4, WorkersPerJob: 2,
		MemSoftLimit: 1 << 40, MemHardLimit: 1 << 40, WatchdogInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	released := func(j *Job, want State, submitted JobStatus) JobStatus {
		t.Helper()
		waitDone(t, j, 60*time.Second)
		j.mu.Lock()
		net := j.req.Network
		j.mu.Unlock()
		st := j.Status()
		if st.State != want || net != nil {
			t.Fatalf("job %s is %s (want %s), still holding its network", j.ID, st.State, want)
		}
		if st.Input != submitted.Input || st.Input.Ands == 0 || st.Digest != submitted.Digest || st.Digest == "" {
			t.Fatalf("status lost its input: %+v, at submission %+v", st, submitted)
		}
		return st
	}

	done, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	if st := released(done, StateDone, done.Status()); st.Output == nil || st.Output.Ands >= st.Input.Ands {
		t.Fatalf("no area reduction: %+v -> %+v", st.Input, st.Output)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + done.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, done.Result().AIGER) {
		t.Fatalf("result: status %d, %d bytes, err %v; want the %d cached bytes", resp.StatusCode, len(body), err, len(done.Result().AIGER))
	}

	// A watchdog kill fails the running job; the one queued behind it is
	// cancelled before it ever runs.
	failed, err := s.Submit(slowRequest(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	failedAt := failed.Status()
	<-failed.Started()
	queued, err := s.Submit(fastRequest(t, "sin"))
	if err != nil {
		t.Fatal(err)
	}
	queuedAt := queued.Status()
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	released(queued, StateCancelled, queuedAt)
	s.observeMemory(1<<40 + 1)
	released(failed, StateFailed, failedAt)
}
