package serve

import (
	"context"
	"sync"
	"time"

	"dacpara"
	"dacpara/internal/aig"
)

// State is a job's lifecycle position. Transitions: queued → running →
// done|failed|cancelled|deadline_exceeded, or queued → cancelled
// directly.
type State string

// The job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateDeadlineExceeded is the terminal state of a job whose
	// wall-clock deadline expired mid-run: distinct from cancelled (the
	// caller's decision) and from failed (an engine fault) so clients can
	// tell "you asked for a bound and hit it" apart from both.
	StateDeadlineExceeded State = "deadline_exceeded"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateDeadlineExceeded:
		return true
	}
	return false
}

// JobRequest is a submission: the job spec plus its input circuit.
// Workers is a request, capped by the service's per-job worker budget;
// a zero VerifyBudget or DeadlineNs takes the service default. The
// deadline is measured from the moment a scheduler slot picks the job
// up, not from submission, so a deep queue does not eat the budget; an
// expired one terminates the job in StateDeadlineExceeded via the
// engines' cooperative cancellation points, leaving the working network
// valid.
type JobRequest struct {
	dacpara.Job
	// Network is the parsed input circuit. The job owns it, and lets go
	// of it when it reaches a terminal state.
	Network *dacpara.Network
}

// Job is one submission's persistent-for-the-process record.
type Job struct {
	// ID is the service-assigned job identifier.
	ID string

	req   JobRequest // req.InputDigest keys the cache and the status digest
	input aig.Stats

	// resumeStep and resumed are set on jobs rebuilt by crash recovery:
	// a flow job restored from a step checkpoint re-runs only the steps
	// from resumeStep on.
	resumeStep int
	resumed    bool

	ctx     context.Context
	cancel  context.CancelCauseFunc
	done    chan struct{}
	started chan struct{}

	mu         sync.Mutex
	state      State
	attempts   int    // cluster leases consumed (0: never dispatched remotely)
	worker     string // worker currently (or last) holding the job's lease
	submitted  time.Time
	startedAt  time.Time
	finished   time.Time
	errMsg     string
	cacheHit   bool
	result     *CachedResult
	verify     *dacpara.Verdict
	cancelOnce sync.Once
}

// newJob builds a job record around a validated request.
func newJob(req JobRequest) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Job{
		req:       req,
		input:     req.Network.Stats(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		started:   make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
}

// Cancel requests cooperative cancellation: a queued job is cancelled
// immediately (the scheduler will skip it), a running job's context is
// cancelled and the engine stops at its next cancellation point. Cancel
// of a terminal job is a no-op. It returns true if the request changed
// anything. Service accounting flows through Service.Cancel — prefer it
// over calling this directly.
func (j *Job) Cancel() bool {
	changed, _ := j.cancelRequest(nil)
	return changed
}

// cancelRequest performs the cancellation state transition; immediate
// reports the queued→cancelled fast path (the job never ran, so the
// scheduler's terminal accounting will not see it). A non-nil cause
// (e.g. the watchdog's *ResourceLimitError) is retrievable from the job
// context and decides the terminal state the scheduler records.
func (j *Job) cancelRequest(cause error) (changed, immediate bool) {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finished = time.Now()
		j.release()
		changed, immediate = true, true
	case StateRunning:
		changed = true
	}
	j.mu.Unlock()
	if changed {
		j.cancelOnce.Do(func() { j.cancel(cause) })
		if immediate {
			j.closeDone()
		}
	}
	return changed, immediate
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Started is closed when a scheduler slot picks the job up (never, if
// the job is cancelled while still queued). It exists so tests and
// callers can wait for "actually running" without polling.
func (j *Job) Started() <-chan struct{} { return j.started }

// Result returns the completed job's cached result, nil until StateDone.
func (j *Job) Result() *CachedResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.result
}

// Metrics returns the run's metrics snapshot, nil until the job is done.
func (j *Job) Metrics() *dacpara.MetricsSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil
	}
	return j.result.Metrics
}

func (j *Job) closeDone() {
	select {
	case <-j.done:
	default:
		close(j.done)
	}
}

// markRunning transitions queued → running; false means the job was
// cancelled (or otherwise left the queue) and must not run.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
	close(j.started)
	return true
}

// currentResumeStep reads the job's flow cursor under the lock (cluster
// hooks advance it concurrently with the scheduler).
func (j *Job) currentResumeStep() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumeStep
}

// noteLease records a cluster lease grant on the job record (status
// observability only; the coordinator owns the authoritative state).
func (j *Job) noteLease(worker string, attempt, resumeStep int) {
	j.mu.Lock()
	j.worker = worker
	j.attempts = attempt
	if resumeStep > j.resumeStep {
		j.resumeStep = resumeStep
	}
	j.mu.Unlock()
}

// noteResumeStep advances the job's visible flow cursor as worker
// checkpoints arrive.
func (j *Job) noteResumeStep(step int) {
	j.mu.Lock()
	if step > j.resumeStep {
		j.resumeStep = step
	}
	j.mu.Unlock()
}

// noteRequeue records a failover re-enqueue: the job is off its worker
// and will resume at resumeStep on the next lease (or locally).
func (j *Job) noteRequeue(resumeStep int) {
	j.mu.Lock()
	j.worker = ""
	if resumeStep > j.resumeStep {
		j.resumeStep = resumeStep
	}
	j.mu.Unlock()
}

// release drops what only a job that may still run needs: the parsed
// network. The record of a terminal job stays for the life of the
// process; its status is rendered from the statistics and digest taken
// at submission, its result from the cached bytes. Call under j.mu, in
// the transition to a terminal state.
func (j *Job) release() {
	j.req.Network = nil
}

func (j *Job) finish(state State, res *CachedResult, verify *dacpara.Verdict, cacheHit bool, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.release()
	j.result = res
	j.verify = verify
	j.cacheHit = cacheHit
	j.errMsg = errMsg
	j.mu.Unlock()
	j.closeDone()
}

// JobStatus is the job-status payload of GET /jobs/<id> — the schema
// `aigstat -json` shares its network-statistics field names with.
type JobStatus struct {
	ID      string         `json:"id"`
	State   State          `json:"state"`
	Engine  dacpara.Engine `json:"engine,omitempty"`
	Flow    string         `json:"flow,omitempty"`
	Workers int            `json:"workers"`
	Passes  int            `json:"passes"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// DeadlineNs is the job's wall-clock running-time bound, 0 if
	// unbounded.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`

	// Resumed marks a job rebuilt by crash recovery; for a flow job,
	// ResumeStep is the step index it resumed from (steps before it were
	// restored from the checkpoint, not re-executed). On a cluster
	// coordinator, ResumeStep also tracks the latest worker-uploaded
	// checkpoint cursor, so a failed-over job shows where its survivor
	// resumed.
	Resumed    bool `json:"resumed,omitempty"`
	ResumeStep int  `json:"resume_step,omitempty"`

	// Attempts counts cluster leases consumed by the job (0: never
	// dispatched to a worker); Worker names the lease holder while one
	// has it.
	Attempts int    `json:"attempts,omitempty"`
	Worker   string `json:"worker,omitempty"`

	// Digest is the input's structural digest (the cache key's input
	// half).
	Digest string `json:"digest"`

	Input  aig.Stats  `json:"input"`
	Output *aig.Stats `json:"output,omitempty"`

	// CacheHit reports that the result was served from the result cache
	// without running the engine.
	CacheHit bool `json:"cache_hit"`

	// Replacements and AreaReduction summarize a done job's run.
	Replacements  int `json:"replacements,omitempty"`
	AreaReduction int `json:"area_reduction,omitempty"`

	Verify *dacpara.Verdict `json:"verify,omitempty"`

	Error string `json:"error,omitempty"`
}

// Status renders the job's current status payload.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Engine:      j.req.Engine,
		Flow:        j.req.Flow,
		Workers:     j.req.Workers,
		Passes:      j.req.Passes,
		SubmittedAt: j.submitted,
		DeadlineNs:  j.req.DeadlineNs,
		Resumed:     j.resumed,
		ResumeStep:  j.resumeStep,
		Attempts:    j.attempts,
		Worker:      j.worker,
		Digest:      j.req.InputDigest,
		Input:       j.input,
		CacheHit:    j.cacheHit,
		Verify:      j.verify,
		Error:       j.errMsg,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.state == StateDone && j.result != nil {
		out := j.result.Output
		st.Output = &out
		st.Replacements = j.result.Result.Replacements
		st.AreaReduction = j.result.Result.AreaReduction()
	}
	return st
}
