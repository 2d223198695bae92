// Package serve hosts a long-running logic-optimization service on top
// of the dacpara facade: a bounded job queue with admission control, a
// scheduler that bounds concurrent engine runs and per-job worker
// budgets, job lifecycle tracking with cooperative cancellation, a
// structural-hash-keyed LRU result cache, graceful drain and — when a
// cluster.Config is attached — the coordinator role of a fault-tolerant
// worker fleet. The HTTP surface (cmd/dacparad) is a thin layer over
// this package.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/cluster"
)

// Options configures a Service; the zero value gets the documented
// defaults.
type Options struct {
	// QueueLimit bounds the jobs waiting to run; a submission that finds
	// the queue full is rejected with *QueueFullError — backpressure, not
	// unbounded buffering (default 64).
	QueueLimit int
	// MaxConcurrent is K, the number of engine jobs running at once
	// (default 8).
	MaxConcurrent int
	// WorkersPerJob is the per-job worker-count budget: a job may request
	// fewer workers but never more, so K jobs × the budget bounds the
	// goroutines competing for cores (default max(1, NumCPU/K)).
	WorkersPerJob int
	// CacheEntries and CacheBytes bound the result cache (defaults 256
	// entries, 256 MiB; negative disables the respective bound... 0 uses
	// the default).
	CacheEntries int
	CacheBytes   int64
	// DataDir, when non-empty, makes the service durable: every job
	// lifecycle transition is journaled (fsync'd, CRC-framed) and every
	// flow job checkpoints its working network at step boundaries, so a
	// service restarted on the same DataDir — even after kill -9 —
	// replays the journal, re-enqueues interrupted jobs and resumes
	// flows from their last trusted checkpoint.
	DataDir string
	// DefaultDeadline bounds the running time of jobs that do not set
	// their own DeadlineNs; 0 leaves such jobs unbounded.
	DefaultDeadline time.Duration
	// MemSoftLimit and MemHardLimit arm the memory watchdog (both in
	// bytes of live heap, sampled from runtime.MemStats; 0 disables the
	// respective mark). Above the soft mark the service sheds load: new
	// submissions are rejected with *OverloadedError (HTTP 503 +
	// Retry-After) until usage drops back under. Above the hard mark the
	// watchdog additionally cancels the largest running job with a
	// *ResourceLimitError cause — sacrificing one job beats the OOM
	// killer taking the whole process (and, with DataDir set, every
	// queued job with it).
	MemSoftLimit int64
	MemHardLimit int64
	// WatchdogInterval is the memory sampling period (default 1s; only
	// relevant when a mem limit is set).
	WatchdogInterval time.Duration
	// Cluster, when non-nil, runs the service as a cluster coordinator:
	// jobs are handed to registered workers under time-bounded leases
	// (see package cluster) and the service keeps admission, the journal,
	// the result cache and the HTTP surface. With zero live workers —
	// none ever joined, or the fleet died mid-job — the service degrades
	// to local in-process execution instead of stalling the queue.
	Cluster *cluster.Config
}

// defaultVerifyBudget is the SAT conflict budget per output of a Verify
// submission that sets none.
const defaultVerifyBudget = 50_000

func (o Options) withDefaults() Options {
	if o.QueueLimit <= 0 {
		o.QueueLimit = 64
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.WorkersPerJob <= 0 {
		o.WorkersPerJob = runtime.NumCPU() / o.MaxConcurrent
		if o.WorkersPerJob < 1 {
			o.WorkersPerJob = 1
		}
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 256 << 20
	}
	if o.WatchdogInterval <= 0 {
		o.WatchdogInterval = time.Second
	}
	return o
}

// QueueFullError is the typed admission-control rejection: the queue is
// at its limit and the submission was not accepted. The HTTP layer maps
// it to 429.
type QueueFullError struct {
	// Limit is the queue bound that was hit.
	Limit int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: job queue full (limit %d)", e.Limit)
}

// ErrDraining rejects submissions arriving after drain began. The HTTP
// layer maps it to 503.
var ErrDraining = errors.New("serve: service is draining, not admitting jobs")

// ErrUnknownJob reports a job ID the service has no record of.
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrResultLost reports a job that completed in a previous process
// life: the journal proves it finished, but the result bytes lived in
// the in-memory cache and did not survive the restart. The HTTP layer
// maps it to 410.
var ErrResultLost = errors.New("serve: result not retained across restart; resubmit the circuit")

// OverloadedError is the memory-shedding rejection: live heap is above
// the soft limit and the service is not admitting work until it drops
// back under. The HTTP layer maps it to 503 + Retry-After.
type OverloadedError struct {
	// HeapBytes is the live-heap sample that tripped (or is keeping) the
	// shed; SoftLimit is the configured mark.
	HeapBytes int64
	SoftLimit int64
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: shedding load, live heap %d bytes over the %d-byte soft limit", e.HeapBytes, e.SoftLimit)
}

// ResourceLimitError is the cancellation cause the memory watchdog
// attaches when live heap crosses the hard limit and the largest
// running job is sacrificed to bring it down. The job terminates failed
// with this message.
type ResourceLimitError struct {
	// Job is the sacrificed job's ID.
	Job string
	// HeapBytes is the sample that crossed HardLimit.
	HeapBytes int64
	HardLimit int64
}

func (e *ResourceLimitError) Error() string {
	return fmt.Sprintf("serve: resource limit: live heap %d bytes over the %d-byte hard limit; job %s cancelled to shed memory",
		e.HeapBytes, e.HardLimit, e.Job)
}

// Service is the long-running optimization service: it owns the job
// queue, the scheduler, the job records, the result cache and — when
// configured with a DataDir — the durability layer and the memory
// watchdog.
type Service struct {
	opts  Options
	cache *resultCache
	dur   *durability          // nil: in-memory only
	coord *cluster.Coordinator // nil: standalone (no worker fleet)

	start time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    chan *Job
	draining bool
	nextID   uint64

	running        atomic.Int64
	submitted      atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	cancelled      atomic.Int64
	deadlined      atomic.Int64
	rejected       atomic.Int64
	shedding       atomic.Bool
	memUsed        atomic.Int64
	shedEpisodes   atomic.Int64
	shedRecoveries atomic.Int64
	shedRejected   atomic.Int64
	memKilled      atomic.Int64
	degradedLocal  atomic.Int64
	stopc          chan struct{}
	stopOnce       sync.Once

	wg sync.WaitGroup
}

// Open starts a service, replaying the journal in Options.DataDir (if
// any) first: terminal job records are restored for status queries,
// interrupted jobs are re-enqueued ahead of new submissions, and
// interrupted flow jobs resume from their last digest-verified
// checkpoint instead of their original input. The Recovery report says
// what was found.
func Open(opts Options) (*Service, *Recovery, error) {
	opts = opts.withDefaults()
	s := &Service{
		opts:  opts,
		cache: newResultCache(opts.CacheEntries, opts.CacheBytes),
		start: time.Now(),
		jobs:  make(map[string]*Job),
		stopc: make(chan struct{}),
	}
	rec := &Recovery{}
	var requeue []*Job
	if opts.DataDir != "" {
		var err error
		if requeue, err = s.openDurability(rec); err != nil {
			return nil, nil, err
		}
	}
	if opts.Cluster != nil {
		s.coord = cluster.NewCoordinator(*opts.Cluster, s.clusterHooks())
	}
	// Size the queue for the configured limit plus everything recovery
	// re-enqueues, so a full-queue crash can still requeue every job.
	s.queue = make(chan *Job, opts.QueueLimit+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	for i := 0; i < opts.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if opts.MemSoftLimit > 0 || opts.MemHardLimit > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s, rec, nil
}

// Options returns the resolved configuration.
func (s *Service) Options() Options { return s.opts }

// Coordinator returns the cluster coordinator, nil on a standalone
// service.
func (s *Service) Coordinator() *cluster.Coordinator { return s.coord }

// Submit validates and enqueues a job. The typed errors are
// *QueueFullError (queue at limit), *OverloadedError (memory shed) and
// ErrDraining; anything else is a bad request. On success the job is
// owned by the service and its network must not be touched by the
// caller again. On a durable service the input blob and the journal
// record are fsync'd before Submit returns: an acknowledged submission
// survives kill -9.
func (s *Service) Submit(req JobRequest) (*Job, error) {
	if req.Network == nil {
		return nil, errors.New("serve: submission has no network")
	}
	if s.shedding.Load() {
		s.shedRejected.Add(1)
		return nil, &OverloadedError{HeapBytes: s.memUsed.Load(), SoftLimit: s.opts.MemSoftLimit}
	}
	if req.Flow == "" && req.Engine == "" {
		req.Engine = dacpara.EngineDACPara
	}
	// The whole spec — flow script included — is validated up front, so
	// a job can never fail on a typo after burning a scheduler slot.
	if err := req.Job.Validate(); err != nil {
		return nil, err
	}
	// Enforce the per-job worker budget: jobs may be narrower than the
	// budget but never wider, so K running jobs cannot oversubscribe the
	// machine.
	if req.Workers <= 0 || req.Workers > s.opts.WorkersPerJob {
		req.Workers = s.opts.WorkersPerJob
	}
	if req.VerifyBudget == 0 {
		req.VerifyBudget = defaultVerifyBudget
	}
	if req.DeadlineNs == 0 {
		req.DeadlineNs = int64(s.opts.DefaultDeadline)
	}
	req.InputDigest = aig.StructuralDigest(req.Network)

	job := newJob(req)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		job.cancel(nil)
		return nil, ErrDraining
	}
	// Admission is still bounded by QueueLimit even though the channel
	// may be wider (recovery sizes it for re-enqueued jobs); only Submit
	// sends while holding the mutex, so the length check is exact and
	// the send below can never block.
	if len(s.queue) >= s.opts.QueueLimit {
		s.mu.Unlock()
		s.rejected.Add(1)
		job.cancel(nil)
		return nil, &QueueFullError{Limit: s.opts.QueueLimit}
	}
	s.nextID++
	job.ID = fmt.Sprintf("j%08d", s.nextID)
	if s.dur != nil {
		// Persist before acknowledging: blob first, then the journal
		// record that makes it live. A failure here rejects the
		// submission — a job the service cannot promise to survive is a
		// job it does not accept. The ID stays consumed (gaps are fine).
		if err := s.dur.persistSubmit(job); err != nil {
			s.mu.Unlock()
			job.cancel(nil)
			return nil, fmt.Errorf("serve: persisting submission: %w", err)
		}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.queue <- job
	s.mu.Unlock()
	s.submitted.Add(1)
	return job, nil
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists every job record in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job by ID (see Job.Cancel). A queued job is counted
// cancelled here; a running one is counted when the engine actually
// stops.
func (s *Service) Cancel(id string) (*Job, error) {
	j, err := s.Job(id)
	if err != nil {
		return nil, err
	}
	if _, immediate := j.cancelRequest(nil); immediate {
		s.cancelled.Add(1)
		s.persistTerminal(j, StateCancelled, "cancelled while queued")
	}
	return j, nil
}

// Drain stops admitting jobs, lets queued and running jobs finish, and
// after gracePeriod cancels whatever is still running (0 means cancel
// immediately after the queue is closed... i.e. no grace). It blocks
// until every worker has exited and is idempotent-safe for a single
// caller (the daemon's signal handler).
func (s *Service) Drain(gracePeriod time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		s.closeCluster()
		s.closeDurability()
		return
	}
	s.draining = true
	close(s.queue) // Submit never sends once draining is set (same lock)
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopc) })

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	var timer <-chan time.Time
	if gracePeriod > 0 {
		t := time.NewTimer(gracePeriod)
		defer t.Stop()
		timer = t.C
	} else {
		c := make(chan time.Time)
		close(c)
		timer = c
	}
	select {
	case <-finished:
		s.closeCluster()
		s.closeDurability()
		return
	case <-timer:
	}
	// Grace expired: cancel everything still live and wait for the
	// engines to reach their cancellation points.
	for _, j := range s.Jobs() {
		if !j.State().Terminal() {
			if _, immediate := j.cancelRequest(nil); immediate {
				s.cancelled.Add(1)
				s.persistTerminal(j, StateCancelled, "cancelled during drain")
			}
		}
	}
	<-finished
	s.closeCluster()
	s.closeDurability()
}

// closeCluster stops the coordinator's failure detector (idempotent;
// no-op on a standalone service).
func (s *Service) closeCluster() {
	if s.coord != nil {
		s.coord.Close()
	}
}

// worker is one scheduler slot: it pulls queued jobs and runs them, at
// most MaxConcurrent at a time by construction.
func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		if !job.markRunning() {
			continue // cancelled while queued
		}
		s.running.Add(1)
		s.run(job)
		s.running.Add(-1)
	}
}

// run executes one job to a terminal state: from the result cache when
// an identical job already ran, remotely when a cluster coordinator with
// live workers is attached, locally otherwise.
func (s *Service) run(job *Job) {
	s.journalStarted(job)
	key := job.req.Key(job.req.InputDigest)
	if res, ok := s.cache.get(key); ok {
		s.serveHit(job, key, res)
		return
	}

	// The wall-clock deadline wraps the job context: expiry surfaces as
	// context.DeadlineExceeded through the engines' cancellation points,
	// while a user cancel or a watchdog kill still cancels job.ctx
	// underneath (its cause says which).
	rctx := job.ctx
	if job.req.DeadlineNs > 0 {
		var cancelDeadline context.CancelFunc
		rctx, cancelDeadline = context.WithTimeout(job.ctx, time.Duration(job.req.DeadlineNs))
		defer cancelDeadline()
	}

	if s.coord != nil && s.runRemote(rctx, job, key) {
		return
	}
	s.runLocal(rctx, job, key, job.req.Network, job.currentResumeStep())
}

// serveHit finishes a job from a cached result. The cache key ignores
// the verification settings, so an entry may lack the verdict a
// verifying job needs: Run's own check (dacpara.Verify) then runs
// against the cached bytes and the verdict joins the entry.
func (s *Service) serveHit(job *Job, key string, res *CachedResult) {
	if !job.req.Verify {
		s.terminate(job, StateDone, res, nil, true, "")
		return
	}
	if res.Verify == nil {
		out, err := decodeAIGER(res.AIGER)
		if err != nil {
			s.terminate(job, StateFailed, nil, nil, true, "verification: "+err.Error())
			return
		}
		verdict, err := dacpara.Verify(job.req.Network, out, job.req.VerifyBudget)
		if err != nil {
			s.terminate(job, StateFailed, nil, verdict, true, err.Error())
			return
		}
		verified := *res
		verified.Verify = verdict
		res = &verified
		s.cache.put(key, res)
	}
	s.terminate(job, StateDone, res, res.Verify, true, "")
}

// runLocal executes one job in-process, starting from net at resumeStep
// (the submitted input at step 0 for a fresh job; a recovery or
// failover checkpoint otherwise).
func (s *Service) runLocal(rctx context.Context, job *Job, key string, net *dacpara.Network, resumeStep int) {
	out, err := dacpara.Run(rctx, net, job.req.Job, dacpara.Hooks{
		ResumeStep: resumeStep,
		Checkpoint: s.checkpointFn(job),
		Attach:     dacpara.Config{Metrics: dacpara.NewMetrics()},
	})
	if err != nil {
		s.finishError(job, out.Verify, err)
		return
	}
	blob, _, err := dacpara.Encode(out.Net, false)
	if err != nil {
		s.terminate(job, StateFailed, nil, out.Verify, false, "encoding result: "+err.Error())
		return
	}
	s.complete(job, key, blob, out.Net, out.Result, out.Verify)
}

// complete caches a finished run — local or remote — and marks the job
// done.
func (s *Service) complete(job *Job, key string, blob []byte, net *dacpara.Network, result dacpara.Result, verify *dacpara.Verdict) {
	res := &CachedResult{
		AIGER:   blob,
		Output:  net.Stats(),
		Result:  result,
		Metrics: result.Metrics,
		Verify:  verify,
	}
	s.cache.put(key, res)
	s.terminate(job, StateDone, res, verify, false, "")
}

// terminate moves a job to a terminal state: process counter, job
// record, journal.
func (s *Service) terminate(job *Job, state State, res *CachedResult, verify *dacpara.Verdict, cacheHit bool, msg string) {
	s.counter(state).Add(1)
	job.finish(state, res, verify, cacheHit, msg)
	s.persistTerminal(job, state, msg)
}

// counter returns the process counter of a terminal state.
func (s *Service) counter(state State) *atomic.Int64 {
	switch state {
	case StateDone:
		return &s.completed
	case StateFailed:
		return &s.failed
	case StateDeadlineExceeded:
		return &s.deadlined
	}
	return &s.cancelled
}

// finishError classifies an interrupted or failed run into its terminal
// state: a watchdog kill (the job context's cause is a
// *ResourceLimitError) is a failure with that message, an expired
// deadline is deadline_exceeded, a plain cancellation is cancelled, and
// anything else — an engine fault, a failed verification — is a failure.
func (s *Service) finishError(job *Job, verify *dacpara.Verdict, err error) {
	var rle *ResourceLimitError
	switch {
	case errors.As(context.Cause(job.ctx), &rle):
		s.terminate(job, StateFailed, nil, verify, false, rle.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.terminate(job, StateDeadlineExceeded, nil, verify, false,
			fmt.Sprintf("deadline %v exceeded: %s", time.Duration(job.req.DeadlineNs), err))
	case errors.Is(err, context.Canceled):
		s.terminate(job, StateCancelled, nil, verify, false, err.Error())
	default:
		s.terminate(job, StateFailed, nil, verify, false, err.Error())
	}
}

// watchdog samples live heap on a ticker and feeds the shed/kill state
// machine until Drain stops it.
func (s *Service) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.WatchdogInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.observeMemory(int64(m.HeapAlloc))
	}
}

// observeMemory is one watchdog step against a live-heap sample (split
// out so tests can drive the state machine without allocating real
// gigabytes). Above the soft limit the service starts shedding —
// submissions are rejected with *OverloadedError until a later sample
// drops back under. Above the hard limit it additionally cancels the
// largest running job (by input AND count — the best cheap proxy for
// engine working-set size) with a *ResourceLimitError cause.
func (s *Service) observeMemory(used int64) {
	s.memUsed.Store(used)
	if soft := s.opts.MemSoftLimit; soft > 0 {
		if used > soft {
			if s.shedding.CompareAndSwap(false, true) {
				s.shedEpisodes.Add(1)
			}
		} else if s.shedding.CompareAndSwap(true, false) {
			s.shedRecoveries.Add(1)
		}
	}
	if hard := s.opts.MemHardLimit; hard > 0 && used > hard {
		s.killLargestRunning(used)
	}
}

// killLargestRunning cancels the running job with the largest input
// network, attributing the cancellation to the memory hard limit. No-op
// when nothing is running.
func (s *Service) killLargestRunning(used int64) {
	var victim *Job
	for _, j := range s.Jobs() {
		if j.State() != StateRunning {
			continue
		}
		if victim == nil || j.input.Ands > victim.input.Ands {
			victim = j
		}
	}
	if victim == nil {
		return
	}
	s.memKilled.Add(1)
	victim.cancelRequest(&ResourceLimitError{Job: victim.ID, HeapBytes: used, HardLimit: s.opts.MemHardLimit})
}

// ProcessMetrics is the process-level /metrics payload.
type ProcessMetrics struct {
	Schema   string `json:"schema"`
	UptimeNs int64  `json:"uptime_ns"`

	QueueLimit    int `json:"queue_limit"`
	QueueDepth    int `json:"queue_depth"`
	MaxConcurrent int `json:"max_concurrent"`
	WorkersPerJob int `json:"workers_per_job"`

	Jobs struct {
		Submitted        int64 `json:"submitted"`
		Queued           int64 `json:"queued"`
		Running          int64 `json:"running"`
		Done             int64 `json:"done"`
		Failed           int64 `json:"failed"`
		Cancelled        int64 `json:"cancelled"`
		DeadlineExceeded int64 `json:"deadline_exceeded"`
		Rejected         int64 `json:"rejected"`
	} `json:"jobs"`

	Cache struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"cache"`

	// Memory is the watchdog's view: the latest live-heap sample, the
	// configured marks, whether load is currently being shed, and the
	// shed/recovery/kill history.
	Memory struct {
		HeapBytes    int64 `json:"heap_bytes"`
		SoftLimit    int64 `json:"soft_limit"`
		HardLimit    int64 `json:"hard_limit"`
		Shedding     bool  `json:"shedding"`
		ShedEpisodes int64 `json:"shed_episodes"`
		ShedRejected int64 `json:"shed_rejected"`
		Recoveries   int64 `json:"recoveries"`
		Killed       int64 `json:"killed"`
	} `json:"memory"`

	// Cluster is the dacparad-cluster/v1 section: per-worker rows and
	// failover counters. Absent on a standalone service.
	Cluster *cluster.Metrics `json:"cluster,omitempty"`

	// Durability reports the journal/checkpoint layer (zero values when
	// the service runs without a DataDir).
	Durability struct {
		Enabled          bool  `json:"enabled"`
		JournalRecords   int64 `json:"journal_records"`
		Checkpoints      int64 `json:"checkpoints"`
		CheckpointErrors int64 `json:"checkpoint_errors"`
		JournalErrors    int64 `json:"journal_errors"`
		RecoveredJobs    int64 `json:"recovered_jobs"`
		ResumedJobs      int64 `json:"resumed_jobs"`
	} `json:"durability"`

	Goroutines int `json:"goroutines"`
}

// SchemaProcess identifies the /metrics JSON schema.
const SchemaProcess = "dacparad-process/v1"

// Metrics snapshots the process-level counters.
func (s *Service) Metrics() ProcessMetrics {
	var m ProcessMetrics
	m.Schema = SchemaProcess
	m.UptimeNs = time.Since(s.start).Nanoseconds()
	m.QueueLimit = s.opts.QueueLimit
	m.QueueDepth = len(s.queue)
	m.MaxConcurrent = s.opts.MaxConcurrent
	m.WorkersPerJob = s.opts.WorkersPerJob
	m.Jobs.Submitted = s.submitted.Load()
	m.Jobs.Running = s.running.Load()
	m.Jobs.Done = s.completed.Load()
	m.Jobs.Failed = s.failed.Load()
	m.Jobs.Cancelled = s.cancelled.Load()
	m.Jobs.DeadlineExceeded = s.deadlined.Load()
	m.Jobs.Rejected = s.rejected.Load()
	m.Jobs.Queued = m.Jobs.Submitted - m.Jobs.Running - m.Jobs.Done - m.Jobs.Failed - m.Jobs.Cancelled - m.Jobs.DeadlineExceeded
	if m.Jobs.Queued < 0 {
		m.Jobs.Queued = 0
	}
	m.Cache.Entries, m.Cache.Bytes, m.Cache.Hits, m.Cache.Misses = s.cache.stats()
	m.Memory.HeapBytes = s.memUsed.Load()
	m.Memory.SoftLimit = s.opts.MemSoftLimit
	m.Memory.HardLimit = s.opts.MemHardLimit
	m.Memory.Shedding = s.shedding.Load()
	m.Memory.ShedEpisodes = s.shedEpisodes.Load()
	m.Memory.ShedRejected = s.shedRejected.Load()
	m.Memory.Recoveries = s.shedRecoveries.Load()
	m.Memory.Killed = s.memKilled.Load()
	if s.coord != nil {
		cm := s.coord.Metrics()
		cm.DegradedLocal = s.degradedLocal.Load()
		m.Cluster = &cm
	}
	if s.dur != nil {
		m.Durability.Enabled = true
		m.Durability.JournalRecords = s.dur.log.Records()
		m.Durability.Checkpoints = s.dur.checkpoints.Load()
		m.Durability.CheckpointErrors = s.dur.checkpointErrors.Load()
		m.Durability.JournalErrors = s.dur.journalErrors.Load()
		m.Durability.RecoveredJobs = s.dur.recoveredJobs
		m.Durability.ResumedJobs = s.dur.resumedJobs
	}
	m.Goroutines = runtime.NumGoroutine()
	return m
}
