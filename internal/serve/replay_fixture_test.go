package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dacpara"
)

// TestReplayParentJournal opens a data directory written by the commit
// before journal.Request, cluster.Task.Req and the facade's job spec
// became one struct (testdata/parent_wal: that commit's serve.Open on a
// fresh DataDir with MaxConcurrent 1 and WorkersPerJob 2, five
// tiny-suite jobs submitted through Service.Submit, the process exited
// without Drain while the third was mid-flow), and requires today's service to
// replay it to the same job states: three terminal records restored with
// every journaled field of their spec, the interrupted flow resumed from
// its step checkpoint, the never-started partitioned job re-run.
func TestReplayParentJournal(t *testing.T) {
	// Open appends to the journal and rewrites blobs: replay a copy.
	dir, fixture := t.TempDir(), filepath.Join("testdata", "parent_wal")
	err := filepath.WalkDir(fixture, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(fixture, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)

	if rec.Replayed != 13 || rec.TruncatedBytes != 0 {
		t.Fatalf("replayed %d records, dropped %d bytes; the fixture holds 13 whole records", rec.Replayed, rec.TruncatedBytes)
	}
	for got, want := range map[*[]string][]string{
		&rec.Restored:   {"j00000001", "j00000002", "j00000004"},
		&rec.Requeued:   {"j00000003", "j00000005"},
		&rec.Resumed:    {"j00000003"},
		&rec.Distrusted: nil,
		&rec.Lost:       nil,
	} {
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("recovery report %+v: got %v, want %v", rec, *got, want)
		}
	}

	const voter = "a6cc67c11225df6aedf33229b96479b4f1b3b3b655c8510655f93db2a4036cda"
	for id, want := range map[string]struct {
		state State
		err   string
		job   dacpara.Job
	}{
		"j00000001": {StateDone, "", dacpara.Job{
			Engine: dacpara.EngineSerial, Workers: 2, K: 5, Passes: 2, MaxCuts: 8, MaxStructs: 5, Classes: 222,
			ZeroGain: true, PreserveDelay: true, Seed: 7, Verify: true, VerifyBudget: 1000,
			DeadlineNs: int64(time.Minute), InputDigest: voter,
		}},
		"j00000002": {StateDeadlineExceeded, "deadline 1ms exceeded: dacpara: flow: context deadline exceeded", dacpara.Job{
			Flow: "b; rw -z; b", Workers: 1, Passes: 300, ZeroGain: true, VerifyBudget: 50000,
			DeadlineNs: int64(time.Millisecond), InputDigest: voter,
		}},
		"j00000004": {StateCancelled, "cancelled while queued", dacpara.Job{
			Engine: dacpara.EngineDACPara, Workers: 1, VerifyBudget: 50000,
			InputDigest: "b6dd98382c43bd35a4a0bd5375b0e65d0b9d13995a7764c1b3efadb2208fb673",
		}},
	} {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Status(); st.State != want.state || st.Error != want.err || st.Digest != want.job.InputDigest {
			t.Errorf("%s restored as %+v, want state %s, error %q", id, st, want.state, want.err)
		}
		if j.req.Job != want.job {
			t.Errorf("%s spec decoded as %+v, want %+v", id, j.req.Job, want.job)
		}
	}

	flow, err := s.Job("j00000003")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, flow, 60*time.Second)
	if st := flow.Status(); st.State != StateDone || !st.Resumed || st.ResumeStep != 1 || st.Flow != "b; rw -z; b" || st.Passes != 40 {
		t.Fatalf("interrupted flow: %+v", st)
	}
	part, err := s.Job("j00000005")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, part, 60*time.Second)
	if st := part.Status(); st.State != StateDone || st.Partition != 2 || st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("requeued partitioned job: %+v", st)
	}
	if m := s.Metrics(); m.Jobs.Done != 3 || m.Jobs.DeadlineExceeded != 1 || m.Jobs.Cancelled != 1 || m.Jobs.Failed != 0 {
		t.Fatalf("process counters after replay: %+v", m.Jobs)
	}
}
