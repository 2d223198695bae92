package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/journal"
)

// TestReplayParentJournal opens a data directory written by the commit
// before journal.Request, cluster.Task.Req and the facade's job spec
// became one struct (testdata/parent_wal: that commit's serve.Open on a
// fresh DataDir with MaxConcurrent 1 and WorkersPerJob 2, five
// tiny-suite jobs submitted through Service.Submit, the process exited
// without Drain while the third was mid-flow), and requires today's service to
// replay it to the same job states: three terminal records restored with
// every journaled field of their spec, the interrupted flow resumed from
// its step checkpoint, the never-started job re-run — whole, although
// its journaled spec asks for two shards. "partition":2 and the first
// job's "seed":7 are keys of that commit's job spec that today's decoder
// skips.
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
			ZeroGain: true, PreserveDelay: true, Verify: true, VerifyBudget: 1000,
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
	st := part.Status()
	if st.State != StateDone || st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("requeued formerly partitioned job: %+v", st)
	}
	if body, err := json.Marshal(st); err != nil || bytes.Contains(body, []byte("partition")) {
		t.Fatalf("status of the formerly partitioned job (marshal error %v): %s", err, body)
	}
	if m := s.Metrics(); m.Jobs.Done != 3 || m.Jobs.DeadlineExceeded != 1 || m.Jobs.Cancelled != 1 || m.Jobs.Failed != 0 {
		t.Fatalf("process counters after replay: %+v", m.Jobs)
	}
}

// TestReplayShardRecords replays a journal as a daemon that still
// partitioned would have left it mid-job: a submitted record whose spec
// carries "partition":2 and two shard_done records, no terminal one. The
// spec also carries the "seed" and "guard" keys of older job specs. The
// submitted payload is literal JSON (today's job spec has no field to
// marshal those keys from), framed as journal.Encode frames the rest.
// Every record counts as replayed and the job re-runs whole and plain;
// the shard checkpoints such a daemon also left (<job>.sN.ckpt) belong to
// no job and are never opened.
func TestReplayShardRecords(t *testing.T) {
	const id = "j00000001"
	net := mustGenerate(t, "voter")
	input, err := dacpara.Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	submitted := []byte(`{"op":"submitted","job":"` + id + `","t":1,"req":{"engine":"dacpara","workers":2,"seed":7,` +
		`"verify":true,"guard":true,"guard_deadline_ns":5000000000,"partition":2,"input_digest":"` + aig.StructuralDigest(net) + `"}}`)
	wal := []byte("DACJNL1\n")
	wal = binary.LittleEndian.AppendUint32(wal, uint32(len(submitted)))
	wal = binary.LittleEndian.AppendUint32(wal, crc32.Checksum(submitted, crc32.MakeTable(crc32.Castagnoli)))
	wal = append(wal, submitted...)
	rest, err := journal.Encode([]journal.Record{
		{Op: journal.OpStarted, Job: id, TimeNs: 2},
		{Op: "shard_done", Job: id, TimeNs: 3, Step: 0, Digest: "sha256:0000", Worker: "local"},
		{Op: "shard_done", Job: id, TimeNs: 4, Step: 1, Digest: "sha256:1111", Worker: "w1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := journal.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveInput(id, input); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveCheckpoint(journal.Checkpoint{Job: id + ".s0", Digest: "sha256:0000", AIGER: input}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), append(wal, rest...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, rec, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	if rec.Replayed != 4 || rec.TruncatedBytes != 0 || !reflect.DeepEqual(rec.Requeued, []string{id}) ||
		len(rec.Resumed)+len(rec.Distrusted)+len(rec.Lost)+len(rec.Restored) != 0 {
		t.Fatalf("recovery report %+v, want 4 records replayed and %s requeued from its input", rec, id)
	}
	job, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)
	if st := job.Status(); st.State != StateDone || st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("formerly partitioned job: %+v", st)
	}
	if want := (dacpara.Job{Engine: dacpara.EngineDACPara, Workers: 2, Verify: true, InputDigest: aig.StructuralDigest(net)}); job.req.Job != want {
		t.Fatalf("old spec decoded as %+v, want %+v", job.req.Job, want)
	}
}

// TestReplayRetiredParallelFlag replays a journal left mid-job by a daemon
// whose refactor and resub still had a serial pass beside the
// level-parallel one that -p chose: a submitted record (literal JSON, as
// that daemon's Submit journaled it) whose flow carries -p on rf and rs,
// then a started record. The job re-runs to done and lands on the
// network the same flow without -p builds.
func TestReplayRetiredParallelFlag(t *testing.T) {
	const id = "j00000001"
	net := mustGenerate(t, "sin")
	input, err := dacpara.Encode(net)
	if err != nil {
		t.Fatal(err)
	}
	submitted := []byte(`{"op":"submitted","job":"` + id + `","t":1,"req":{"flow":"b; rf -p; rs -p -w=2; b","workers":2,` +
		`"verify":true,"verify_budget":50000,"input_digest":"` + aig.StructuralDigest(net) + `"}}`)
	wal := []byte("DACJNL1\n")
	wal = binary.LittleEndian.AppendUint32(wal, uint32(len(submitted)))
	wal = binary.LittleEndian.AppendUint32(wal, crc32.Checksum(submitted, crc32.MakeTable(crc32.Castagnoli)))
	wal = append(wal, submitted...)
	rest, err := journal.Encode([]journal.Record{{Op: journal.OpStarted, Job: id, TimeNs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := journal.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveInput(id, input); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), append(wal, rest...), 0o644); err != nil {
		t.Fatal(err)
	}

	s, rec, err := Open(durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(time.Second)
	if rec.Replayed != 2 || !reflect.DeepEqual(rec.Requeued, []string{id}) {
		t.Fatalf("recovery report %+v, want 2 records replayed and %s requeued", rec, id)
	}
	job, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job, 60*time.Second)
	if st := job.Status(); st.State != StateDone || st.Verify == nil || !st.Verify.Equivalent {
		t.Fatalf("replayed -p flow job: %+v", st)
	}
	got, err := aig.Read(bytes.NewReader(job.Result().AIGER))
	if err != nil {
		t.Fatal(err)
	}
	run, err := dacpara.Run(context.Background(), net.Clone(), dacpara.Job{Flow: "b; rf; rs -w=2; b", Workers: 2}, dacpara.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := run.Net
	if g, w := aig.StructuralDigest(got), aig.StructuralDigest(want); g != w {
		t.Fatalf("replayed job's output %s (%d ANDs), the flow without -p %s (%d ANDs)", g, got.NumAnds(), w, want.NumAnds())
	}
}
