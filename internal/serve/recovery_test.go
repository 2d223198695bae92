package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/aig"
)

// durableOptions keeps the watchdog ticker out of the way (the memory
// tests drive observeMemory directly) and the queue small.
func durableOptions(dir string) Options {
	return Options{
		MaxConcurrent:    1,
		QueueLimit:       8,
		WorkersPerJob:    2,
		DataDir:          dir,
		WatchdogInterval: time.Hour,
	}
}

// TestCrashRecoveryResumesFlow is the end-to-end durability test: a
// multi-step flow job is killed mid-flight after its first step
// checkpoint, the service is reopened on the same data directory, and
// the job must resume from the checkpoint (not step 0), finish, and
// produce a network equivalent to the input — i.e. equivalent to what
// the uninterrupted run would have produced.
func TestCrashRecoveryResumesFlow(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 || len(rec.Requeued) != 0 {
		t.Fatalf("fresh data dir reported recovery: %+v", rec)
	}

	// Step 1 (b) is fast and checkpoints; step 2 (rw -z with many passes)
	// runs long enough to be the one the crash lands in.
	flow, err := s.Submit(JobRequest{
		Job:     dacpara.Job{Flow: "b; rw -z; b", Workers: 2, Passes: 300},
		Network: mustGenerate(t, "voter"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second job still queued at crash time exercises the
	// submitted-but-never-started replay path.
	queued, err := s.Submit(fastRequest(t, "mult"))
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for s.Metrics().Durability.Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 60s (job %s is %s)", flow.ID, flow.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := flow.State(); st.Terminal() {
		t.Fatalf("flow job already %s before the crash; make the rw step slower", st)
	}
	s.crashForTest()

	s2, rec2, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	if len(rec2.Requeued) != 2 {
		t.Fatalf("requeued %v, want both jobs", rec2.Requeued)
	}
	if len(rec2.Resumed) != 1 || rec2.Resumed[0] != flow.ID {
		t.Fatalf("resumed %v, want [%s]", rec2.Resumed, flow.ID)
	}
	if len(rec2.Lost) != 0 || len(rec2.Distrusted) != 0 {
		t.Fatalf("recovery lost/distrusted jobs: %+v", rec2)
	}

	flow2, err := s2.Job(flow.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := flow2.Status()
	if !st.Resumed || st.ResumeStep < 1 {
		t.Fatalf("job not resumed from a checkpoint: %+v", st)
	}
	waitDone(t, flow2, 120*time.Second)
	if st := flow2.Status(); st.State != StateDone {
		t.Fatalf("resumed job: %s (err %q)", st.State, st.Error)
	}

	// The resumed result must be a correct optimization of the original
	// input: CEC against a fresh copy of the submitted circuit.
	out, err := aig.Read(bytes.NewReader(flow2.Result().AIGER))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dacpara.Verify(mustGenerate(t, "voter"), out, 0); err != nil {
		t.Fatalf("resumed flow result is not equivalent to the input: %v", err)
	}

	queued2, err := s2.Job(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, queued2, 120*time.Second)
	if st := queued2.Status(); st.State != StateDone {
		t.Fatalf("requeued job: %s (err %q)", st.State, st.Error)
	}

	if m := s2.Metrics().Durability; !m.Enabled || m.ResumedJobs != 1 || m.RecoveredJobs != 2 {
		t.Fatalf("durability metrics: %+v", m)
	}
}

// TestRecoveryResumesDACParaCheckpoint: recovery trusts a checkpoint
// whose blob parses back to the journaled digest, which is the digest of
// the graph the step left in memory. That holds because every run ends
// canonical: dacpara's commits on tiny sin leave two ANDs on one fanin
// pair, which parsing would merge, and the pass-end fold merges them
// first. Were the fold missing, recovery would distrust this sound
// checkpoint and restart the job from its input.
func TestRecoveryResumesDACParaCheckpoint(t *testing.T) {
	in := mustGenerate(t, "sin")
	job := dacpara.Job{Flow: "rw; b", Workers: 1}
	// The checkpoint is what the flow's first step leaves.
	step, err := dacpara.Run(context.Background(), in.Clone(), dacpara.Job{Flow: "rw", Workers: 1}, dacpara.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	ck := step.Net

	dir := t.TempDir()
	s, _, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	// The blocker holds the one scheduler slot, so the flow job stays
	// queued and the only checkpoint it has is the one written here.
	blocker, err := s.Submit(slowRequest(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning, 30*time.Second)
	flow, err := s.Submit(JobRequest{Job: job, Network: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkpointFn(flow)(1, ck); err != nil {
		t.Fatal(err)
	}
	s.crashForTest()

	s2, rec, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(time.Second)
	if _, err := s2.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if len(rec.Distrusted) != 0 || len(rec.Resumed) != 1 || rec.Resumed[0] != flow.ID {
		t.Fatalf("recovery resumed %v and distrusted %v, want [%s] resumed", rec.Resumed, rec.Distrusted, flow.ID)
	}
	flow2, err := s2.Job(flow.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, flow2, 60*time.Second)
	if st := flow2.Status(); st.State != StateDone || st.ResumeStep != 1 {
		t.Fatalf("resumed job: %+v", st)
	}
	out, err := aig.Read(bytes.NewReader(flow2.Result().AIGER))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dacpara.Verify(in, out, 0); err != nil {
		t.Fatalf("resumed flow result is not equivalent to the input: %v", err)
	}
}

// TestRecoveryRestoresTerminalRecords checks that finished jobs survive
// a restart as queryable records, that their cached result bytes do
// not (ErrResultLost semantics), and that new submissions never reuse a
// replayed job ID.
func TestRecoveryRestoresTerminalRecords(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateDone {
		t.Fatalf("job: %s", j.State())
	}
	s.Drain(time.Second)

	s2, rec, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(0)
	if len(rec.Restored) != 1 || rec.Restored[0] != j.ID {
		t.Fatalf("restored %v, want [%s]", rec.Restored, j.ID)
	}
	j2, err := s2.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != StateDone || st.Digest != j.Status().Digest {
		t.Fatalf("restored status: %+v", st)
	}
	if j2.Result() != nil {
		t.Fatal("result bytes should not survive a restart")
	}
	next, err := s2.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatal(err)
	}
	if next.ID == j.ID {
		t.Fatalf("replayed job ID %s reused", next.ID)
	}
	waitDone(t, next, 60*time.Second)
}

// TestJournalRejectsForeignDataDir: opening a data dir whose journal is
// not a journal must fail loudly, not silently replay nothing.
func TestJournalRejectsForeignDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.wal"), []byte("this is not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(durableOptions(dir)); err == nil {
		t.Fatal("Open accepted a corrupt journal header")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2, WorkersPerJob: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	req := slowRequest(t, 5000)
	req.DeadlineNs = int64(100 * time.Millisecond)
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 30*time.Second)
	st := j.Status()
	if st.State != StateDeadlineExceeded {
		t.Fatalf("state = %s (err %q), want deadline_exceeded", st.State, st.Error)
	}
	if st.DeadlineNs != (100 * time.Millisecond).Nanoseconds() {
		t.Fatalf("deadline_ns = %d", st.DeadlineNs)
	}
	if got := s.Metrics().Jobs.DeadlineExceeded; got != 1 {
		t.Fatalf("deadline_exceeded counter = %d, want 1", got)
	}
	// Terminal-state precedence: a deadline expiry is not a cancellation.
	if c := s.Metrics().Jobs.Cancelled; c != 0 {
		t.Fatalf("cancelled counter = %d, want 0", c)
	}
}

func TestDefaultDeadlineApplied(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2, WorkersPerJob: 2, DefaultDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	j, err := s.Submit(slowRequest(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Status().DeadlineNs; got != (50 * time.Millisecond).Nanoseconds() {
		t.Fatalf("default deadline not applied: %d", got)
	}
	waitDone(t, j, 30*time.Second)
	if st := j.State(); st != StateDeadlineExceeded {
		t.Fatalf("state = %s, want deadline_exceeded", st)
	}
}

func TestNegativeDeadlineRejected(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	req := fastRequest(t, "voter")
	req.DeadlineNs = -int64(time.Second)
	if _, err := s.Submit(req); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

// TestMemorySheddingStateMachine drives the watchdog state machine
// directly (the ticker is parked on a one-hour interval): soft-limit
// crossings toggle shedding with episode/recovery counters, and
// submissions during a shed get the typed overload rejection.
func TestMemorySheddingStateMachine(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2, MemSoftLimit: 1000, WatchdogInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)

	s.observeMemory(1500)
	var overloaded *OverloadedError
	_, err = s.Submit(fastRequest(t, "voter"))
	if !errors.As(err, &overloaded) {
		t.Fatalf("submission during shed: %v, want *OverloadedError", err)
	}
	if overloaded.HeapBytes != 1500 || overloaded.SoftLimit != 1000 {
		t.Fatalf("overload error: %+v", overloaded)
	}

	// Staying over the limit is still one episode.
	s.observeMemory(1600)
	m := s.Metrics().Memory
	if !m.Shedding || m.ShedEpisodes != 1 || m.ShedRejected != 1 || m.HeapBytes != 1600 {
		t.Fatalf("mid-shed metrics: %+v", m)
	}

	s.observeMemory(500)
	j, err := s.Submit(fastRequest(t, "voter"))
	if err != nil {
		t.Fatalf("submission after recovery: %v", err)
	}
	waitDone(t, j, 60*time.Second)
	m = s.Metrics().Memory
	if m.Shedding || m.Recoveries != 1 {
		t.Fatalf("post-recovery metrics: %+v", m)
	}
}

// TestMemoryHardLimitKillsLargestJob: above the hard mark the watchdog
// cancels the largest running job with a *ResourceLimitError cause and
// the job terminates failed, not cancelled.
func TestMemoryHardLimitKillsLargestJob(t *testing.T) {
	s, _, err := Open(Options{MaxConcurrent: 1, QueueLimit: 2, WorkersPerJob: 2,
		MemSoftLimit: 1 << 40, MemHardLimit: 1 << 40, WatchdogInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	j, err := s.Submit(slowRequest(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Started():
	case <-time.After(60 * time.Second):
		t.Fatal("job never started")
	}
	s.observeMemory(1<<40 + 1)
	waitDone(t, j, 30*time.Second)
	st := j.Status()
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "resource limit") {
		t.Fatalf("error = %q, want a resource-limit message", st.Error)
	}
	m := s.Metrics().Memory
	if m.Killed != 1 {
		t.Fatalf("killed counter = %d, want 1", m.Killed)
	}
}
