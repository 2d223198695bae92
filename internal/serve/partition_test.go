package serve

import (
	"testing"
	"time"

	"dacpara"
)

// partitionRequest is a partitioned submission of a tiny-suite circuit
// with verification on: every shard is CEC-checked against its cone and
// the stitched whole against the input.
func partitionRequest(t *testing.T, name string, shards int) JobRequest {
	return JobRequest{
		Job:     dacpara.Job{Engine: dacpara.EngineDACPara, Workers: 2, Partition: shards, Verify: true},
		Network: mustGenerate(t, name),
	}
}

// TestPartitionedJobLocal: a standalone service runs a partitioned job
// on local goroutines — shards rewritten, verified, stitched — and the
// metrics snapshot carries the partition section.
func TestPartitionedJobLocal(t *testing.T) {
	s := New(Options{MaxConcurrent: 2, QueueLimit: 8, WorkersPerJob: 4})
	defer s.Drain(time.Second)

	req := partitionRequest(t, "voter", 4)
	golden := req.Network.Clone()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("partitioned job: %s (%s)", st.State, st.Error)
	}
	if st.Partition != 4 {
		t.Fatalf("status partition = %d, want 4", st.Partition)
	}
	if st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("verify status = %+v, want equivalent", st.Verify)
	}
	m := j.Metrics()
	if m == nil || m.Partition == nil {
		t.Fatal("metrics snapshot has no partition section")
	}
	if m.Partition.Shards < 2 || len(m.Partition.PerShard) != m.Partition.Shards {
		t.Fatalf("partition section: %+v", m.Partition)
	}
	res := j.Result()
	out, err := decodeAIGER(res.AIGER)
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := dacpara.Equivalent(golden, out); err != nil || !eq {
		t.Fatalf("partitioned output not equivalent (eq=%v err=%v)", eq, err)
	}
}

// TestPartitionedJobRejectsBadShardCount: partition=1 (and beyond the
// cap) is a submission error, not a silent whole-circuit run.
func TestPartitionedJobRejectsBadShardCount(t *testing.T) {
	s := New(Options{MaxConcurrent: 1, QueueLimit: 4})
	defer s.Drain(0)
	for _, bad := range []int{1, -2, 65} {
		req := fastRequest(t, "voter")
		req.Partition = bad
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("partition=%d accepted", bad)
		}
	}
}

// TestPartitionedJobCluster: with a worker fleet attached, a
// partitioned job fans its shards out as independent tasks — at least
// one shard must complete remotely and the per-shard metrics name the
// workers.
func TestPartitionedJobCluster(t *testing.T) {
	opts := Options{MaxConcurrent: 2, QueueLimit: 8, WorkersPerJob: 2, Cluster: clusterConfig()}
	s, srv, _ := startClusterService(t, opts, 2)

	req := partitionRequest(t, "voter", 2)
	golden := req.Network.Clone()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 180*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("clustered partitioned job: %s (%s)", st.State, st.Error)
	}
	m := j.Metrics()
	if m == nil || m.Partition == nil {
		t.Fatal("no partition metrics section")
	}
	remote := 0
	for _, sh := range m.Partition.PerShard {
		if sh.Worker != "" && sh.Worker != "local" {
			remote++
		}
	}
	if remote == 0 {
		t.Fatalf("no shard ran on the fleet: %+v", m.Partition.PerShard)
	}
	if cm := s.Metrics().Cluster; cm.CompletedRemote < 1 {
		t.Fatalf("completed_remote = %d, want >= 1", cm.CompletedRemote)
	}
	out := fetchResult(t, srv.URL, j.ID)
	if eq, err := dacpara.Equivalent(golden, out); err != nil || !eq {
		t.Fatalf("clustered partitioned output not equivalent (eq=%v err=%v)", eq, err)
	}
}

// TestPartitionedClusterWorkerLoss: one of two workers is killed while
// holding a shard lease. Only that shard's attempt is lost — the
// coordinator re-runs it (on the survivor or degraded-locally) and the
// job still finishes equivalent.
func TestPartitionedClusterWorkerLoss(t *testing.T) {
	opts := Options{MaxConcurrent: 2, QueueLimit: 8, WorkersPerJob: 2, Cluster: clusterConfig()}
	s, srv, workers := startClusterService(t, opts, 2)

	req := JobRequest{
		Job:     dacpara.Job{Flow: "b; rw -z; b", Workers: 2, Passes: 30, ZeroGain: true, Partition: 2, Verify: true},
		Network: mustGenerate(t, "voter"),
	}
	golden := req.Network.Clone()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for a worker to go busy on one of the shard tasks, then kill
	// it mid-shard.
	var holder string
	deadline := time.Now().Add(30 * time.Second)
	for holder == "" {
		if time.Now().After(deadline) {
			t.Fatal("no worker went busy on a shard")
		}
		for _, row := range s.Metrics().Cluster.Workers {
			if row.State == "busy" {
				holder = row.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, w := range workers {
		if w.ID() == holder {
			w.Kill()
		}
	}

	waitDone(t, j, 300*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("partitioned job after worker loss: %s (%s)", st.State, st.Error)
	}
	if st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("verify status = %+v, want equivalent", st.Verify)
	}
	out := fetchResult(t, srv.URL, j.ID)
	if eq, err := dacpara.Equivalent(golden, out); err != nil || !eq {
		t.Fatalf("worker-loss partitioned output not equivalent (eq=%v err=%v)", eq, err)
	}
}

// TestPartitionedCrashRecovery: kill -9 a durable service after at
// least one shard of a partitioned job has journaled OpShardDone. The
// reopened service re-enqueues the job with the finished shard's
// digest-verified blob restored, re-runs only the missing shards, and
// finishes equivalent.
func TestPartitionedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := durableOptions(dir)
	opts.MaxConcurrent = 2
	s1, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	req := JobRequest{
		Job:     dacpara.Job{Engine: dacpara.EngineDACPara, Workers: 2, Passes: 25, ZeroGain: true, Partition: 3, Verify: true},
		Network: mustGenerate(t, "voter"),
	}
	golden := req.Network.Clone()
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Crash once the first shard's completion hits the journal but (in
	// all likelihood) before the whole job finishes.
	deadline := time.Now().Add(60 * time.Second)
	for s1.dur.checkpoints.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no shard completion journaled")
		}
		if j1.State().Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1.crashForTest()
	if j1.State().Terminal() && j1.State() == StateDone {
		t.Skip("job finished before the crash landed; nothing to recover")
	}

	s2, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	if len(rec.Requeued) != 1 || rec.Requeued[0] != j1.ID {
		t.Fatalf("requeued = %v, want [%s]", rec.Requeued, j1.ID)
	}
	found := false
	for _, id := range rec.Resumed {
		if id == j1.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("resumed = %v, want it to include %s (shard blob restored)", rec.Resumed, j1.ID)
	}

	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 300*time.Second)
	st := j2.Status()
	if st.State != StateDone {
		t.Fatalf("recovered partitioned job: %s (%s)", st.State, st.Error)
	}
	if !st.Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	m := j2.Metrics()
	if m == nil || m.Partition == nil {
		t.Fatal("recovered job has no partition metrics")
	}
	recovered := 0
	for _, sh := range m.Partition.PerShard {
		if sh.Worker == "recovered" {
			recovered++
		}
	}
	if recovered < 1 {
		t.Fatalf("no shard served from its crash-recovered blob: %+v", m.Partition.PerShard)
	}
	res := j2.Result()
	out, err := decodeAIGER(res.AIGER)
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := dacpara.Equivalent(golden, out); err != nil || !eq {
		t.Fatalf("recovered partitioned output not equivalent (eq=%v err=%v)", eq, err)
	}
}
