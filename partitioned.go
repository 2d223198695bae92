package dacpara

import (
	"context"
	"runtime"
	"sync"
	"time"

	"dacpara/internal/metrics"
	"dacpara/internal/partition"
)

// MaxPartitionShards is the largest supported Job.Partition.
const MaxPartitionShards = partition.MaxShards

// PartitionSnapshot is the partition section of a metrics snapshot —
// split shape, pipeline timings, per-shard QoR.
type PartitionSnapshot = metrics.PartitionSnapshot

// runPartitioned drives partition.Run over a partitioned job: every shard
// runs the job narrowed to a whole-circuit, unverified task (in-process,
// up to Workers goroutines split across shards, unless Hooks.Shard
// dispatches it elsewhere), the per-shard results of the accepted shards
// fold into one Result, and the stitched circuit replaces out.Net in
// place. With Job.Verify the stitched whole is equivalence-checked
// against the input within the job's budget.
func runPartitioned(ctx context.Context, out *Outcome, job Job, cfg Config, h Hooks) error {
	start := time.Now()
	net := out.Net
	name := "partition(flow)"
	if job.Flow == "" {
		name = "partition(" + string(job.Engine) + ")"
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := Result{
		Engine:       name,
		Threads:      workers,
		Passes:       max(1, cfg.Passes),
		InitialAnds:  net.NumAnds(),
		InitialDelay: net.Delay(),
	}

	parallel := min(job.Partition, workers)
	task := job // what every shard runs: the job, whole-circuit and unverified
	task.Partition, task.Verify, task.VerifyBudget, task.DeadlineNs = 0, false, 0, 0
	task.Workers = max(1, workers/parallel)
	shard := h.Shard
	if shard == nil {
		attach := h.Attach
		attach.Metrics = nil // per-shard runs may overlap; one collector cannot serve them
		shard = func(ctx context.Context, _ int, sub *Network, task Job) (*Network, Result, string, error) {
			o, err := Run(ctx, sub, task, Hooks{Attach: attach})
			return o.Net, o.Result, "local", err
		}
	} else {
		parallel = job.Partition
	}

	// The Optimize goroutines write under mu; partition.Run joins them
	// all before returning, so the fold below reads race-free.
	var mu sync.Mutex
	shardRes := map[int]Result{}
	stitched, st, err := partition.Run(ctx, net, partition.RunOptions{
		Shards:   job.Partition,
		Parallel: parallel,
		Optimize: func(ctx context.Context, i int, sub *Network) (*Network, string, error) {
			final, r, worker, err := shard(ctx, i, sub, task)
			if err != nil {
				return nil, worker, err
			}
			mu.Lock()
			shardRes[i] = r
			mu.Unlock()
			return final, worker, nil
		},
		ShardVerifyBudget: job.VerifyBudget,
		WholeVerify:       job.Verify,
		WholeVerifyBudget: job.VerifyBudget,
	})
	if err != nil {
		out.Result = res
		return err
	}
	if st.WholeChecked {
		out.Verify = &Verdict{Equivalent: st.Equivalent, Proved: st.Proved}
	}
	for i, r := range shardRes {
		if st.PerShard[i].Rejected {
			continue // the shard's work was discarded with its graph
		}
		res.Replacements += r.Replacements
		res.Attempts += r.Attempts
		res.Stale += r.Stale
		res.Commits += r.Commits
		res.Aborts += r.Aborts
		res.InjectedAborts += r.InjectedAborts
		res.CommittedWork += r.CommittedWork
		res.WastedWork += r.WastedWork
		res.Incomplete = res.Incomplete || r.Incomplete
	}

	net.Adopt(stitched)
	res.FinalAnds = net.NumAnds()
	res.FinalDelay = net.Delay()
	res.Duration = time.Since(start)

	if cfg.Metrics != nil {
		res.Metrics = &MetricsSnapshot{
			Schema:  metrics.SchemaMetrics,
			Engine:  name,
			Workers: workers,
			Passes:  res.Passes,
			WallNs:  res.Duration.Nanoseconds(),
			Speculation: metrics.Spec{
				Commits:        res.Commits,
				Aborts:         res.Aborts,
				InjectedAborts: res.InjectedAborts,
				CommittedNs:    res.CommittedWork.Nanoseconds(),
				WastedNs:       res.WastedWork.Nanoseconds(),
			},
			QoR: metrics.QoRSnapshot{
				InitialAnds:  res.InitialAnds,
				FinalAnds:    res.FinalAnds,
				InitialDelay: int(res.InitialDelay),
				FinalDelay:   int(res.FinalDelay),
				Replacements: res.Replacements,
				Attempts:     res.Attempts,
				Stale:        res.Stale,
				Incomplete:   res.Incomplete,
			},
		}
		st.Decorate(res.Metrics)
	}
	out.Result = res
	return nil
}
