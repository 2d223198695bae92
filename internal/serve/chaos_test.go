package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/chaos"
	"dacpara/internal/cluster"
	"dacpara/internal/journal"
)

// TestClusterChaosDuplicateUploadsJournalOnce runs a checkpointing flow
// on a fleet whose transports duplicate most uploads, and checks the
// durability contract end to end: the job finishes equivalent, the
// coordinator absorbed real duplicates, and the journal on disk holds
// at most one record per (job, step, digest) checkpoint — a duplicated
// delivery must never become a journal double-entry.
func TestClusterChaosDuplicateUploadsJournalOnce(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		MaxConcurrent:    2,
		QueueLimit:       8,
		WorkersPerJob:    2,
		DataDir:          dir,
		WatchdogInterval: time.Hour,
		Cluster:          clusterConfig(),
	}
	s, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Drain(time.Second)
	})

	plan := chaos.Plan{Seed: 11, DupRate: 0.8}
	ctx := t.Context()
	for _, id := range []string{"w1", "w2"} {
		w := cluster.NewWorker(cluster.WorkerOptions{
			Coordinator: srv.URL,
			ID:          id,
			RPCTimeout:  2 * time.Second,
			Client:      &http.Client{Transport: chaos.NewTransport(plan, nil, id)},
		})
		go w.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Coordinator().LiveWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never joined")
		}
		time.Sleep(2 * time.Millisecond)
	}

	golden := mustGenerate(t, "voter")
	j, err := s.Submit(JobRequest{
		Job:     dacpara.Job{Flow: "b; rw; b", Workers: 2},
		Network: golden,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state %s", st)
	}
	out := fetchResult(t, srv.URL, j.ID)
	if _, err := dacpara.Verify(golden, out, 0); err != nil {
		t.Fatalf("result not equivalent: %v", err)
	}
	// The run must have absorbed actual duplicates, or this test proves
	// nothing.
	if m := s.Coordinator().Metrics(); m.DupSuppressed == 0 {
		t.Fatal("no duplicate upload was suppressed; raise DupRate")
	}

	// Journal audit: every checkpoint record unique per (job, step,
	// digest).
	data, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	const magic = "DACJNL1\n" // journal files lead with this; Decode takes the framed body
	if !bytes.HasPrefix(data, []byte(magic)) {
		t.Fatalf("journal missing file magic (%d bytes)", len(data))
	}
	recs, _ := journal.Decode(data[len(magic):])
	seen := map[string]bool{}
	var ckRecords int
	for _, r := range recs {
		if r.Op != journal.OpCheckpoint {
			continue
		}
		ckRecords++
		key := fmt.Sprintf("%s|%d|%s", r.Job, r.Step, r.Digest)
		if seen[key] {
			t.Fatalf("journal double-entry: checkpoint %s step %d digest %s", r.Job, r.Step, r.Digest)
		}
		seen[key] = true
	}
	if ckRecords == 0 {
		t.Fatal("no checkpoint record journaled at all")
	}
}
