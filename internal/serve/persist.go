package serve

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/journal"
)

// durability is the service's crash-safety layer: the write-ahead log
// of job lifecycle records and the blob store for inputs and flow-step
// checkpoints. nil on an in-memory service.
type durability struct {
	log   *journal.Log
	store *journal.Store

	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	journalErrors    atomic.Int64
	recoveredJobs    int64 // set once at Open
	resumedJobs      int64 // set once at Open

	// lastCk remembers each live job's last persisted checkpoint
	// (step|digest), so a duplicated delivery — a resent upload, a
	// replayed coordinator hook — appends one journal record, not two.
	ckMu   sync.Mutex
	lastCk map[string]string

	// crashed is the test hook for kill -9 simulation: once set, no more
	// bytes reach the data directory, freezing it in a mid-flight state
	// exactly as a power cut would.
	crashed atomic.Bool
}

// Recovery reports what Open replayed from a data directory.
type Recovery struct {
	// Replayed is the number of valid journal records read.
	Replayed int
	// TruncatedBytes is the torn/corrupt tail dropped from the journal.
	TruncatedBytes int64
	// Restored lists terminal jobs whose records were rebuilt (status
	// queries keep working; result bytes are gone with the old process).
	Restored []string
	// Requeued lists interrupted jobs put back on the queue.
	Requeued []string
	// Resumed is the subset of Requeued that will continue from a
	// digest-verified flow checkpoint instead of their original input.
	Resumed []string
	// Distrusted lists jobs whose checkpoint failed its digest or CRC
	// check; they restart from their input instead.
	Distrusted []string
	// Lost lists jobs that could not be recovered at all (input blob
	// missing or failing its digest check); they are marked failed.
	Lost []string
}

// journalName is the WAL file inside the data directory.
const journalName = "journal.wal"

func opForState(state State) journal.Op {
	switch state {
	case StateDone:
		return journal.OpDone
	case StateFailed:
		return journal.OpFailed
	case StateDeadlineExceeded:
		return journal.OpDeadlineExceeded
	default:
		return journal.OpCancelled
	}
}

func stateForOp(op journal.Op) State {
	switch op {
	case journal.OpDone:
		return StateDone
	case journal.OpFailed:
		return StateFailed
	case journal.OpDeadlineExceeded:
		return StateDeadlineExceeded
	default:
		return StateCancelled
	}
}

// persistSubmit writes the input blob and the submitted record; called
// under the service mutex before the job is acknowledged, so a
// submission the caller saw accepted is on disk.
func (d *durability) persistSubmit(job *Job) error {
	blob, err := dacpara.Encode(job.req.Network)
	if err != nil {
		return err
	}
	if err := d.store.SaveInput(job.ID, blob); err != nil {
		return err
	}
	return d.log.Append(journal.Record{
		Op:     journal.OpSubmitted,
		Job:    job.ID,
		TimeNs: time.Now().UnixNano(),
		Req:    &job.req.Job,
	})
}

// journalStarted records that a scheduler slot picked the job up.
// Journal trouble after admission degrades durability, never
// availability: the error is counted and the job runs on.
func (s *Service) journalStarted(job *Job) {
	d := s.dur
	if d == nil || d.crashed.Load() {
		return
	}
	if err := d.log.Append(journal.Record{Op: journal.OpStarted, Job: job.ID, TimeNs: time.Now().UnixNano()}); err != nil {
		d.journalErrors.Add(1)
	}
}

// persistTerminal records a job's terminal state and frees its blobs
// (the journal keeps the record; the bytes are no longer needed).
func (s *Service) persistTerminal(job *Job, state State, errMsg string) {
	d := s.dur
	if d == nil || d.crashed.Load() {
		return
	}
	rec := journal.Record{Op: opForState(state), Job: job.ID, TimeNs: time.Now().UnixNano(), Err: errMsg}
	if err := d.log.Append(rec); err != nil {
		d.journalErrors.Add(1)
		return
	}
	d.ckMu.Lock()
	delete(d.lastCk, job.ID)
	d.ckMu.Unlock()
	d.store.Remove(job.ID)
}

// checkpointFn returns the flow step-boundary hook for a job: snapshot
// the working network (binary AIGER + structural digest + cursor) into
// the store, then journal the cursor advance. The digest is the blob's
// as recovery parses it back, which merges ANDs a step left on one
// fanin pair. nil on an in-memory service. Checkpoint trouble degrades durability (the job would merely
// resume from an earlier point after a crash), so errors are counted
// and swallowed rather than failing a healthy job.
func (s *Service) checkpointFn(job *Job) dacpara.FlowCheckpoint {
	if s.dur == nil {
		return nil
	}
	return func(completed int, net *dacpara.Network) error {
		if s.dur.crashed.Load() {
			return nil
		}
		blob, err := dacpara.Encode(net)
		if err != nil {
			s.dur.checkpointErrors.Add(1)
			return nil
		}
		s.persistCheckpoint(job.ID, completed, aig.StructuralDigest(net), blob)
		return nil
	}
}

// persistCheckpoint stores one flow-step snapshot and journals the
// cursor advance. It serves both local flow runs (via checkpointFn) and
// worker-uploaded cluster checkpoints (via the coordinator hooks), so a
// coordinator crash-restarting mid-failover resumes from whichever
// checkpoint arrived last, local or remote. No-op on an in-memory
// service; errors are counted and swallowed (durability degrades, the
// job runs on).
func (s *Service) persistCheckpoint(jobID string, step int, digest string, aiger []byte) {
	d := s.dur
	if d == nil || d.crashed.Load() {
		return
	}
	key := strconv.Itoa(step) + "|" + digest
	d.ckMu.Lock()
	dup := d.lastCk[jobID] == key
	d.ckMu.Unlock()
	if dup {
		// Same step, same digest, already durable: a duplicated delivery
		// must be a no-op, not a journal double-entry.
		return
	}
	ck := journal.Checkpoint{Job: jobID, Step: step, Digest: digest, AIGER: aiger}
	if err := d.store.SaveCheckpoint(ck); err != nil {
		d.checkpointErrors.Add(1)
		return
	}
	if err := d.log.Append(journal.Record{
		Op: journal.OpCheckpoint, Job: jobID, TimeNs: time.Now().UnixNano(),
		Step: step, Digest: digest,
	}); err != nil {
		d.journalErrors.Add(1)
		return
	}
	d.ckMu.Lock()
	if d.lastCk == nil {
		d.lastCk = make(map[string]string)
	}
	d.lastCk[jobID] = key
	d.ckMu.Unlock()
	d.checkpoints.Add(1)
}

// journalLease records a cluster lease grant or expiry (op OpLeased or
// OpLeaseExpired); both are non-terminal, so replay treats a job whose
// last record is a lease event as interrupted, exactly right.
func (s *Service) journalLease(op journal.Op, jobID, worker string, attempt int) {
	d := s.dur
	if d == nil || d.crashed.Load() {
		return
	}
	if err := d.log.Append(journal.Record{
		Op: op, Job: jobID, TimeNs: time.Now().UnixNano(),
		Worker: worker, Attempt: attempt,
	}); err != nil {
		d.journalErrors.Add(1)
	}
}

func (s *Service) closeDurability() {
	if s.dur != nil {
		s.dur.log.Close()
	}
}

// replayState is one job's folded journal history.
type replayState struct {
	id          string
	req         *journal.Request
	ckStep      int
	ckDigest    string
	terminal    journal.Op
	errMsg      string
	submittedNs int64
	finishedNs  int64
}

// openDurability opens the journal and blob store under Options.DataDir,
// replays the record history, restores terminal job records, and
// returns the interrupted jobs to re-enqueue (flow jobs positioned at
// their last trusted checkpoint). Called before the scheduler starts.
func (s *Service) openDurability(rec *Recovery) ([]*Job, error) {
	log, recs, dropped, err := journal.Open(filepath.Join(s.opts.DataDir, journalName))
	if err != nil {
		return nil, err
	}
	store, err := journal.OpenStore(s.opts.DataDir)
	if err != nil {
		log.Close()
		return nil, err
	}
	s.dur = &durability{log: log, store: store}
	rec.Replayed = len(recs)
	rec.TruncatedBytes = dropped

	byJob := make(map[string]*replayState)
	var order []string
	var maxID uint64
	for _, r := range recs {
		rp := byJob[r.Job]
		if rp == nil {
			if r.Op != journal.OpSubmitted || r.Req == nil {
				continue // stray record for a job whose submission is gone
			}
			rp = &replayState{id: r.Job, req: r.Req, submittedNs: r.TimeNs}
			byJob[r.Job] = rp
			order = append(order, r.Job)
			if n, err := strconv.ParseUint(strings.TrimPrefix(r.Job, "j"), 10, 64); err == nil && n > maxID {
				maxID = n
			}
			continue
		}
		switch r.Op {
		case journal.OpCheckpoint:
			if r.Step > rp.ckStep {
				rp.ckStep = r.Step
				rp.ckDigest = r.Digest
			}
		case journal.OpDone, journal.OpFailed, journal.OpCancelled, journal.OpDeadlineExceeded:
			rp.terminal = r.Op
			rp.errMsg = r.Err
			rp.finishedNs = r.TimeNs
		}
	}
	s.nextID = maxID

	var requeue []*Job
	for _, id := range order {
		rp := byJob[id]
		if rp.terminal.Terminal() {
			s.restoreTerminal(rp)
			rec.Restored = append(rec.Restored, id)
			store.Remove(id) // blob cleanup may have been interrupted
			continue
		}
		job, resumed, err := s.rebuildLive(rp)
		if err != nil {
			// The journal promises a job the blobs cannot honour: record
			// the loss durably and keep serving.
			msg := "recovery: " + err.Error()
			s.restoreTerminal(&replayState{
				id: rp.id, req: rp.req, terminal: journal.OpFailed,
				errMsg: msg, submittedNs: rp.submittedNs, finishedNs: time.Now().UnixNano(),
			})
			log.Append(journal.Record{Op: journal.OpFailed, Job: id, TimeNs: time.Now().UnixNano(), Err: msg})
			store.Remove(id)
			rec.Lost = append(rec.Lost, id)
			continue
		}
		if resumed {
			rec.Resumed = append(rec.Resumed, id)
			s.dur.resumedJobs++
		} else if rp.req.Flow != "" && rp.ckStep > 0 {
			rec.Distrusted = append(rec.Distrusted, id)
		}
		rec.Requeued = append(rec.Requeued, id)
		requeue = append(requeue, job)
	}
	s.dur.recoveredJobs = int64(len(rec.Restored) + len(rec.Requeued) + len(rec.Lost))
	return requeue, nil
}

// restoreTerminal rebuilds a terminal job record so status queries keep
// answering across restarts. The result bytes lived in the in-memory
// cache and are gone; GET result returns 410 for such jobs.
func (s *Service) restoreTerminal(rp *replayState) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(nil)
	job := &Job{
		ID:        rp.id,
		req:       JobRequest{Job: *rp.req},
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		started:   make(chan struct{}),
		state:     stateForOp(rp.terminal),
		errMsg:    rp.errMsg,
		submitted: time.Unix(0, rp.submittedNs),
		finished:  time.Unix(0, rp.finishedNs),
	}
	close(job.done)
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.submitted.Add(1)
	s.counter(job.state).Add(1)
}

// rebuildLive reconstructs an interrupted job from its blobs: the input
// is loaded and digest-verified, and — for a flow job with a journaled
// checkpoint — the checkpoint is loaded, CRC-checked, digest-verified
// against both the journal record and its own re-parsed structure, and
// used as the starting network with the flow cursor advanced. Any
// checkpoint doubt falls back to the input; any input doubt is an
// error (the job cannot be re-run).
func (s *Service) rebuildLive(rp *replayState) (job *Job, resumed bool, err error) {
	data, err := s.dur.store.LoadInput(rp.id)
	if err != nil {
		return nil, false, fmt.Errorf("input blob: %w", err)
	}
	input, err := aig.Read(bytes.NewReader(data))
	if err != nil {
		return nil, false, fmt.Errorf("input blob: %w", err)
	}
	if got := aig.StructuralDigest(input); got != rp.req.InputDigest {
		return nil, false, fmt.Errorf("input blob digest %.12s.. does not match journal %.12s..", got, rp.req.InputDigest)
	}

	req := JobRequest{Job: *rp.req, Network: input}
	resumeStep := 0
	if req.Flow != "" && rp.ckStep > 0 {
		if net, ok := s.loadTrustedCheckpoint(rp); ok {
			req.Network = net
			resumeStep = rp.ckStep
			resumed = true
		}
	}

	job = newJob(req)
	job.ID = rp.id
	// The journaled InputDigest — cache key and status digest — and the
	// input stats describe the original submission, not the checkpoint
	// state the job happens to resume from.
	job.input = input.Stats()
	job.submitted = time.Unix(0, rp.submittedNs)
	job.resumeStep = resumeStep
	job.resumed = true
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.submitted.Add(1)
	return job, resumed, nil
}

// loadTrustedCheckpoint returns the checkpointed network only if every
// integrity gate passes: file CRC, cursor and digest agreement with the
// journal, and the parsed network re-digesting to the recorded value.
// A checkpoint is an optimization, never an obligation — any doubt and
// the job simply restarts from its verified input.
func (s *Service) loadTrustedCheckpoint(rp *replayState) (*dacpara.Network, bool) {
	ck, err := s.dur.store.LoadCheckpoint(rp.id)
	if err != nil || ck.Step != rp.ckStep || ck.Digest != rp.ckDigest {
		return nil, false
	}
	net, err := aig.Read(bytes.NewReader(ck.AIGER))
	if err != nil {
		return nil, false
	}
	if aig.StructuralDigest(net) != ck.Digest {
		return nil, false
	}
	return net, true
}

// crashForTest simulates kill -9 for the recovery tests: the journal is
// closed and all further persistence suppressed (the disk freezes in
// whatever state it reached), every live job context is cancelled so
// engine goroutines unwind, and the scheduler is shut down. The
// in-memory Service is dead afterwards; reopen the DataDir to recover.
func (s *Service) crashForTest() {
	if s.dur != nil {
		s.dur.crashed.Store(true)
		s.dur.log.Close()
	}
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	if !alreadyDraining {
		close(s.queue)
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopc) })
	for _, j := range s.Jobs() {
		if !j.State().Terminal() {
			j.cancelRequest(nil)
		}
	}
	s.wg.Wait()
}
