package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cluster"
)

// clusterConfig is tuned for fast failure detection in tests: leases
// expire ~1.5s after the holder goes silent.
func clusterConfig() *cluster.Config {
	return &cluster.Config{
		Lease:       1500 * time.Millisecond,
		Heartbeat:   100 * time.Millisecond,
		Sweep:       50 * time.Millisecond,
		MaxAttempts: 5,
		PollWait:    100 * time.Millisecond,
	}
}

// startClusterService brings up a coordinator service, its HTTP
// surface, and n pull workers attached to it.
func startClusterService(t *testing.T, opts Options, n int) (*Service, *httptest.Server, []*cluster.Worker) {
	t.Helper()
	s, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Drain(time.Second)
	})
	ctx := t.Context()
	workers := make([]*cluster.Worker, n)
	for i := range workers {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: srv.URL,
			ID:          "w" + string(rune('1'+i)),
			RPCTimeout:  2 * time.Second,
		})
		workers[i] = w
		go w.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Coordinator().LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers joined", s.Coordinator().LiveWorkers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s, srv, workers
}

// slowFlowRequest is a three-step flow whose middle step runs for
// seconds (many zero-gain passes): long enough to kill a worker mid-job
// after the first checkpoint, cheap enough to retry.
func slowFlowRequest(t *testing.T) JobRequest {
	return JobRequest{
		Job:     dacpara.Job{Flow: "b; rw -z; b", Workers: 2, Passes: 30, ZeroGain: true},
		Network: mustGenerate(t, "voter"),
	}
}

func fetchResult(t *testing.T, base, id string) *dacpara.Network {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	net, err := aig.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// waitClusterCheckpoint polls the service metrics until at least one
// worker-uploaded checkpoint is visible.
func waitClusterCheckpoint(t *testing.T, s *Service, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m := s.Metrics().Cluster; m != nil && m.CheckpointsUploaded >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no cluster checkpoint uploaded")
}

// TestClusterJobWithDuplicateNodes: the dacpara engine can leave two
// ANDs with the same fanin pair, which re-parsing the shipped blob
// merges. A worker that digested its in-memory graph then declared a
// digest the coordinator — which digests what it parses — could never
// match: every upload was rejected as corrupt and the job failed when
// its leases ran out. The digest must describe the bytes shipped.
func TestClusterJobWithDuplicateNodes(t *testing.T) {
	// A circuit as the service sees one (parsed from bytes) whose
	// one-worker dacpara rewrite leaves such a pair.
	blob, _, err := dacpara.Encode(bench.MemCtrl(4500, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	input, err := aig.Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	probe := input.Clone()
	if _, err := dacpara.Rewrite(probe, dacpara.EngineDACPara, dacpara.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if probe.Check(aig.CheckOptions{}) == nil {
		t.Skip("the engine no longer leaves duplicate ANDs on this circuit; find another to keep this drill meaningful")
	}

	s, _, _ := startClusterService(t, Options{Cluster: clusterConfig()}, 2)
	j, err := s.Submit(JobRequest{Job: dacpara.Job{Engine: dacpara.EngineDACPara, Workers: 1}, Network: input})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if st := j.Status(); st.State != StateDone || st.Attempts != 1 || st.Worker == "" {
		t.Fatalf("job did not finish on its first lease on the fleet: %+v", st)
	}
	if m := s.Metrics().Cluster; m.CorruptBlobs != 0 {
		t.Fatalf("%d uploads rejected as corrupt", m.CorruptBlobs)
	}
}

// TestClusterFailoverE2E is the headline failure drill: two workers,
// one multi-step flow job, and a kill -9 of the worker running it right
// after its first checkpoint upload. The job must finish on the
// survivor, resumed from the checkpoint rather than from scratch, and
// the final circuit must be equivalent to the input.
func TestClusterFailoverE2E(t *testing.T) {
	opts := durableOptions(t.TempDir())
	opts.Cluster = clusterConfig()
	s, srv, workers := startClusterService(t, opts, 2)

	req := slowFlowRequest(t)
	golden := req.Network.Clone()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	waitClusterCheckpoint(t, s, 30*time.Second)
	var holder string
	deadline := time.Now().Add(10 * time.Second)
	for holder == "" {
		if time.Now().After(deadline) {
			t.Fatal("no lease holder visible in metrics")
		}
		for _, row := range s.Metrics().Cluster.Workers {
			if row.State == "busy" && row.Job == j.ID {
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

	waitDone(t, j, 180*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job after failover: %s (%s)", st.State, st.Error)
	}
	if st.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (the kill must have burned a lease)", st.Attempts)
	}
	if st.ResumeStep < 1 {
		t.Fatalf("resume_step = %d, want >= 1 (survivor must resume from the checkpoint)", st.ResumeStep)
	}
	if st.Worker == "" || st.Worker == holder {
		t.Fatalf("finishing worker %q, want a live worker other than killed %q", st.Worker, holder)
	}
	out := fetchResult(t, srv.URL, j.ID)
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("failover output not equivalent to input: %v", err)
	}
	cm := s.Metrics().Cluster
	if cm.LeasesExpired < 1 || cm.Requeued < 1 || cm.CompletedRemote < 1 {
		t.Fatalf("failover counters: %+v", cm)
	}
}

// TestClusterZeroWorkersRunsLocally: a coordinator with no fleet does
// not wedge submissions — it degrades to in-process execution.
func TestClusterZeroWorkersRunsLocally(t *testing.T) {
	opts := Options{MaxConcurrent: 2, QueueLimit: 8, Cluster: clusterConfig()}
	s, srv, _ := startClusterService(t, opts, 0)

	req := fastRequest(t, "voter")
	golden := req.Network.Clone()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if st.Attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (no worker ever leased it)", st.Attempts)
	}
	if got := s.Metrics().Cluster.DegradedLocal; got < 1 {
		t.Fatalf("degraded_local = %d, want >= 1", got)
	}
	out := fetchResult(t, srv.URL, j.ID)
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("local-degraded output not equivalent: %v", err)
	}
}

// TestClusterFleetLossResumesLocally: the sole worker dies mid-flow.
// With nobody left to fail over to, the coordinator finishes the job
// itself — from the dead worker's last checkpoint, not from scratch.
func TestClusterFleetLossResumesLocally(t *testing.T) {
	opts := Options{MaxConcurrent: 2, QueueLimit: 8, Cluster: clusterConfig()}
	s, srv, workers := startClusterService(t, opts, 1)

	req := slowFlowRequest(t)
	golden := req.Network.Clone()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitClusterCheckpoint(t, s, 30*time.Second)
	workers[0].Kill()

	waitDone(t, j, 180*time.Second)
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job after fleet loss: %s (%s)", st.State, st.Error)
	}
	if st.ResumeStep < 1 {
		t.Fatalf("resume_step = %d, want >= 1 (local run must start from the checkpoint)", st.ResumeStep)
	}
	if got := s.Metrics().Cluster.DegradedLocal; got < 1 {
		t.Fatalf("degraded_local = %d, want >= 1", got)
	}
	out := fetchResult(t, srv.URL, j.ID)
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("fleet-loss output not equivalent: %v", err)
	}
}

// TestClusterMetricsSchema: the dacparad-cluster/v1 section of
// /metrics carries per-worker rows and failover counters.
func TestClusterMetricsSchema(t *testing.T) {
	opts := Options{MaxConcurrent: 2, QueueLimit: 8, Cluster: clusterConfig()}
	s, srv, _ := startClusterService(t, opts, 1)

	j, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var pm ProcessMetrics
	if err := json.Unmarshal(raw, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Schema != SchemaProcess {
		t.Fatalf("process schema %q", pm.Schema)
	}
	cm := pm.Cluster
	if cm == nil || cm.Schema != cluster.SchemaCluster {
		t.Fatalf("cluster section = %+v, want schema %q", cm, cluster.SchemaCluster)
	}
	if cm.LiveWorkers != 1 || len(cm.Workers) != 1 {
		t.Fatalf("worker rows: %+v", cm)
	}
	row := cm.Workers[0]
	if row.ID != "w1" || row.State != "idle" || row.Completed != 1 {
		t.Fatalf("worker row after one remote job: %+v", row)
	}
	if cm.LeasesGranted < 1 || cm.CompletedRemote < 1 || cm.Heartbeats < 0 {
		t.Fatalf("counters: %+v", cm)
	}
	// The wire form must actually spell the schema out: clients key off
	// the JSON, not our structs.
	var loose map[string]any
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	sect, ok := loose["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("no cluster object in /metrics: %s", raw)
	}
	for _, key := range []string{"schema", "workers", "live_workers", "pending_tasks",
		"leases_granted", "leases_expired", "requeued", "attempts_exhausted",
		"checkpoints_uploaded", "completed_remote", "degraded_local"} {
		if _, ok := sect[key]; !ok {
			t.Fatalf("cluster section missing %q: %v", key, sect)
		}
	}
}

// TestReadyzDrainLifecycle: /readyz says ready while admitting, flips
// to 503 + Retry-After when draining, while /healthz stays 200 (the
// process is alive either way).
func TestReadyzDrainLifecycle(t *testing.T) {
	s, srv := startDaemon(t, Options{MaxConcurrent: 1, QueueLimit: 4})

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving = %d, want 200", resp.StatusCode)
	}

	s.Drain(0)
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready readyz without Retry-After")
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "draining" {
		t.Fatalf("readyz body status %q, want draining", body.Status)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while drained = %d, want 200 (liveness != readiness)", hresp.StatusCode)
	}
}
