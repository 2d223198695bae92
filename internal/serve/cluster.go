package serve

import (
	"context"
	"errors"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/cluster"
	"dacpara/internal/journal"
)

// clusterHooks wires the coordinator's lifecycle events into the
// service: lease grants and expiries are journaled (so a restart knows
// which worker held what), worker-uploaded checkpoints are persisted
// exactly as a local flow's would be, and the job record tracks which
// worker/attempt/resume-step the job is on for status queries.
func (s *Service) clusterHooks() cluster.Hooks {
	return cluster.Hooks{
		OnLease: func(jobID, worker string, attempt, resumeStep int) {
			s.journalLease(journal.OpLeased, jobID, worker, attempt)
			if j, err := s.Job(jobID); err == nil {
				j.noteLease(worker, attempt, resumeStep)
			}
		},
		OnLeaseExpired: func(jobID, worker string, attempt int) {
			s.journalLease(journal.OpLeaseExpired, jobID, worker, attempt)
		},
		OnCheckpoint: func(jobID string, step int, digest string, aiger []byte) {
			s.persistCheckpoint(jobID, step, digest, aiger)
			if j, err := s.Job(jobID); err == nil {
				j.noteResumeStep(step)
			}
		},
		OnRequeue: func(jobID string, attempt, resumeStep int) {
			if j, err := s.Job(jobID); err == nil {
				j.noteRequeue(resumeStep)
			}
		},
	}
}

// runRemote tries to run the job on the worker fleet. It returns false
// only when the job should instead run locally from its own submitted
// state (no live workers at dispatch time, or an un-streamable input);
// every other outcome — including a mid-job fleet loss, which it
// finishes locally itself from the last uploaded checkpoint — is
// handled and returns true.
func (s *Service) runRemote(rctx context.Context, job *Job, key string) bool {
	blob, _, err := dacpara.Encode(job.req.Network, false)
	if err != nil {
		return false
	}
	// baseStep is the flow cursor matching job.req.Network (0, or the
	// recovery checkpoint the network was restored from) — the pairing
	// every fallback below must preserve.
	baseStep := job.currentResumeStep()
	t := cluster.Task{
		Job:        job.ID,
		Req:        job.req.Job,
		ResumeStep: baseStep,
		// BlobDigest describes the blob actually streamed with the lease
		// — job.req.Network, which for a recovery-resumed job is the
		// restored checkpoint, not the original submission InputDigest
		// names.
		BlobDigest: aig.StructuralDigest(job.req.Network),
	}
	res, err := s.coord.Dispatch(rctx, t, blob)
	if err == nil {
		s.finishRemote(job, key, res)
		return true
	}
	if errors.Is(err, cluster.ErrNoWorkers) {
		s.degradedLocal.Add(1)
		return false
	}
	var lost *cluster.WorkersLostError
	if errors.As(err, &lost) {
		// The fleet died out from under the job: finish it here, resuming
		// from the dead worker's last uploaded checkpoint when one parses
		// (it already passed the coordinator's bookkeeping; a corrupt blob
		// just restarts the job from its verified input).
		s.degradedLocal.Add(1)
		net, step := job.req.Network, baseStep
		if lost.State != nil {
			if n, rerr := decodeAIGER(lost.State); rerr == nil {
				net, step = n, lost.ResumeStep
				job.noteRequeue(step)
			}
		}
		s.runLocal(rctx, job, key, net, step)
		return true
	}
	var exhausted *cluster.AttemptsExhaustedError
	if errors.As(err, &exhausted) {
		s.terminate(job, StateFailed, nil, nil, false, err.Error())
		return true
	}
	// The dispatch context ended: cancel, deadline, or a watchdog kill.
	// finishError reads the cause and classifies it like a local run.
	s.finishError(job, nil, err)
	return true
}

// finishRemote records a worker-completed job: result cached under the
// same digest-keyed entry a local run would use, verification verdict
// as reported by the worker (which checked against the state it started
// from, matching local resume semantics).
func (s *Service) finishRemote(job *Job, key string, res *cluster.RemoteResult) {
	out, err := decodeAIGER(res.AIGER)
	if err != nil {
		s.terminate(job, StateFailed, nil, res.Verify, false, "decoding remote result: "+err.Error())
		return
	}
	s.complete(job, key, res.AIGER, out, res.Result, res.Verify)
}
