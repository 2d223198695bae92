package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dacpara"
	"dacpara/internal/cluster"
	"dacpara/internal/journal"
)

// shardJobID names the synthetic per-shard task of a partitioned job.
// The coordinator leases shard tasks under these IDs (the lease hooks
// tolerate them — Job() lookups miss and the bookkeeping is skipped)
// and the blob store keys each shard's optimized-result checkpoint by
// them.
func shardJobID(jobID string, shard int) string {
	return fmt.Sprintf("%s.s%d", jobID, shard)
}

// shardRunner is the shard dispatcher a partitioned job hands to
// dacpara.Run, which cuts, CEC-checks and stitches; this decides where
// each shard runs.
//
// With a cluster coordinator attached the shards are dispatched to the
// worker fleet as independent tasks under the existing lease/heartbeat
// machinery — a dead worker costs only its shard's attempt, not the
// job. A shard that finds no live workers (or loses its worker's fleet
// entirely) degrades to local execution, serialized so a dead fleet
// reduces to sequential local shard runs rather than oversubscribing
// the coordinator host. Standalone, the shards share the job's worker
// budget (parallel shards × per-shard workers ≤ budget, as Run sized
// them). On a durable service every finished shard is journaled
// (OpShardDone) with its blob in the checkpoint store, so a crash
// re-runs only the unfinished shards and resumes at the stitch step.
func (s *Service) shardRunner(job *Job) dacpara.ShardFunc {
	// The semaphore bounds concurrent local shard runs: the planned
	// parallelism standalone, one at a time behind a coordinator (local
	// execution there is the degraded path and gets the whole budget).
	slots := 1
	if s.coord == nil {
		slots = max(1, min(job.req.Partition, job.req.Workers))
	}
	sem := make(chan struct{}, slots)
	return func(ctx context.Context, i int, sub *dacpara.Network, task dacpara.Job) (*dacpara.Network, dacpara.Result, string, error) {
		if blob, ok := job.shardOut[i]; ok {
			if net, rerr := decodeAIGER(blob); rerr == nil &&
				net.NumPIs() == sub.NumPIs() && net.NumPOs() == sub.NumPOs() {
				// Crash-recovered shard: the blob was digest-verified at
				// recovery and Run's per-shard CEC re-checks it against
				// the fresh extraction, so the shard is not re-run.
				return net, dacpara.Result{}, "recovered", nil
			}
		}
		if s.coord == nil {
			return s.runShardLocal(ctx, job, i, sub, task, sem)
		}
		task.Workers = job.req.Workers
		return s.runShardRemote(ctx, job, i, sub, task, sem)
	}
}

// runShardLocal runs one shard task in-process, once the semaphore
// admits it.
func (s *Service) runShardLocal(ctx context.Context, job *Job, i int, sub *dacpara.Network, task dacpara.Job, sem chan struct{}) (*dacpara.Network, dacpara.Result, string, error) {
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return nil, dacpara.Result{}, "", context.Cause(ctx)
	}
	defer func() { <-sem }()

	out, err := dacpara.Run(ctx, sub, task, dacpara.Hooks{})
	if err != nil {
		return nil, out.Result, "local", err
	}
	s.persistShardDone(job, i, "local", out.Net)
	return out.Net, out.Result, "local", nil
}

// runShardRemote dispatches one shard to the worker fleet as its own
// task. A shard that cannot be placed (no live workers) or whose fleet
// dies mid-run degrades to local execution; exhausted retry budgets and
// context expiry are terminal for the whole job.
func (s *Service) runShardRemote(ctx context.Context, job *Job, i int, sub *dacpara.Network, task dacpara.Job, sem chan struct{}) (*dacpara.Network, dacpara.Result, string, error) {
	blob, _, err := dacpara.Encode(sub, false)
	if err != nil {
		return nil, dacpara.Result{}, "", fmt.Errorf("encoding shard: %w", err)
	}
	task.InputDigest = StructuralDigest(sub)
	res, err := s.coord.Dispatch(ctx, cluster.Task{Job: shardJobID(job.ID, i), Req: task}, blob)
	if err == nil {
		net, rerr := decodeAIGER(res.AIGER)
		if rerr != nil {
			return nil, res.Result, res.Worker, fmt.Errorf("decoding shard result from %s: %w", res.Worker, rerr)
		}
		s.persistShardDone(job, i, res.Worker, net)
		return net, res.Result, res.Worker, nil
	}
	var lost *cluster.WorkersLostError
	if errors.Is(err, cluster.ErrNoWorkers) || errors.As(err, &lost) {
		// Fleet empty (or died out from under this shard): finish the
		// shard here from its extracted input. Shard tasks are small and
		// engine runs do not checkpoint, so there is no mid-shard state
		// worth salvaging.
		s.degradedLocal.Add(1)
		return s.runShardLocal(ctx, job, i, sub, task, sem)
	}
	return nil, dacpara.Result{}, "", err
}

// persistShardDone snapshots one finished shard: the optimized shard
// blob goes to the checkpoint store under the shard's task ID and the
// parent job's journal gains an OpShardDone record carrying the shard
// index and digest. After a crash, recovery re-runs only the shards
// without such a record and resumes at the stitch step. No-op on an
// in-memory service; errors degrade durability, never the run.
func (s *Service) persistShardDone(job *Job, shard int, worker string, net *dacpara.Network) {
	d := s.dur
	if d == nil || d.crashed.Load() {
		return
	}
	blob, _, err := dacpara.Encode(net, false)
	if err != nil {
		d.checkpointErrors.Add(1)
		return
	}
	digest := StructuralDigest(net)
	ck := journal.Checkpoint{Job: shardJobID(job.ID, shard), Step: shard, Digest: digest, AIGER: blob}
	if err := d.store.SaveCheckpoint(ck); err != nil {
		d.checkpointErrors.Add(1)
		return
	}
	if err := d.log.Append(journal.Record{
		Op: journal.OpShardDone, Job: job.ID, TimeNs: time.Now().UnixNano(),
		Step: shard, Digest: digest, Worker: worker,
	}); err != nil {
		d.journalErrors.Add(1)
		return
	}
	d.checkpoints.Add(1)
}
