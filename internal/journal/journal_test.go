package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"dacpara"
)

func sampleRecords() []Record {
	return []Record{
		{Op: OpSubmitted, Job: "j00000001", TimeNs: 100, Req: &Request{
			Flow: "b; rw -z; b", Workers: 4, Passes: 3, InputDigest: "sha256:aaaa",
		}},
		{Op: OpStarted, Job: "j00000001", TimeNs: 200},
		{Op: OpCheckpoint, Job: "j00000001", TimeNs: 300, Step: 1, Digest: "sha256:bbbb"},
		{Op: OpSubmitted, Job: "j00000002", TimeNs: 400, Req: &Request{
			Engine: "dacpara", InputDigest: "sha256:cccc",
		}},
		{Op: OpDone, Job: "j00000001", TimeNs: 500},
		{Op: OpFailed, Job: "j00000002", TimeNs: 600, Err: "boom"},
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	want := sampleRecords()
	data, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, valid := Decode(data)
	if valid != len(data) {
		t.Fatalf("valid prefix %d, want whole buffer %d", valid, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Job != want[i].Job || got[i].Step != want[i].Step ||
			got[i].Digest != want[i].Digest || got[i].Err != want[i].Err || got[i].TimeNs != want[i].TimeNs {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if got[0].Req == nil || got[0].Req.Flow != "b; rw -z; b" || got[0].Req.InputDigest != "sha256:aaaa" {
		t.Errorf("submitted request not preserved: %+v", got[0].Req)
	}
}

// TestJobSurvivesTheLog: a fully populated job spec written through a
// real log file comes back field for field, with the same cache key —
// the WAL half of "one struct from query string to runner". The record
// JSON is also pinned against the tags journals in the field carry.
func TestJobSurvivesTheLog(t *testing.T) {
	want := dacpara.Job{
		Engine: dacpara.EngineLockPar, Workers: 3, K: 5, Passes: 2, MaxCuts: 8, MaxStructs: 5, Classes: 222,
		ZeroGain: true, PreserveDelay: true, Verify: true, VerifyBudget: 1000,
		DeadlineNs: 30e9, InputDigest: "sha256:aaaa",
	}
	flow := dacpara.Job{Flow: "b; rw", InputDigest: "sha256:bbbb"}
	path := filepath.Join(t.TempDir(), "journal.wal")
	log, _, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range []dacpara.Job{want, flow} {
		if err := log.Append(Record{Op: OpSubmitted, Job: "j" + string(rune('1'+i)), Req: &job}); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	log, recs, dropped, err := Open(path)
	if err != nil || dropped != 0 || len(recs) != 2 {
		t.Fatalf("reopen: %d records, %d bytes dropped, err %v", len(recs), dropped, err)
	}
	log.Close()
	for i, job := range []dacpara.Job{want, flow} {
		got := *recs[i].Req
		if got != job {
			t.Errorf("job %d came back as %+v, want %+v", i, got, job)
		}
		if got.Key(got.InputDigest) != job.Key(job.InputDigest) {
			t.Errorf("job %d: cache key changed across the log", i)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const wire = `"req":{"engine":"iccad18","workers":3,"k":5,"passes":2,"max_cuts":8,"max_structs":5,"classes":222,` +
		`"zero_gain":true,"preserve_delay":true,"verify":true,"verify_budget":1000,` +
		`"deadline_ns":30000000000,"input_digest":"sha256:aaaa"}`
	if !bytes.Contains(data, []byte(wire)) {
		t.Fatalf("submitted record does not carry the journal's request JSON %s:\n%q", wire, data)
	}
}

func TestDecodeTornTail(t *testing.T) {
	data, err := Encode(sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	full, fullLen := Decode(data)
	// Chop the buffer at every possible length: the decoder must return a
	// valid record prefix for each without panicking, and whole-record
	// cuts must lose nothing before the cut.
	for cut := 0; cut < len(data); cut++ {
		recs, valid := Decode(data[:cut])
		if valid > cut {
			t.Fatalf("cut %d: valid prefix %d exceeds input", cut, valid)
		}
		if len(recs) > len(full) {
			t.Fatalf("cut %d: more records than the full buffer", cut)
		}
		for i := range recs {
			if recs[i].Op != full[i].Op || recs[i].Job != full[i].Job {
				t.Fatalf("cut %d: record %d diverged", cut, i)
			}
		}
	}
	if _, v := Decode(data); v != fullLen {
		t.Fatalf("full decode not stable: %d vs %d", v, fullLen)
	}
}

func TestDecodeCorruptLength(t *testing.T) {
	data, err := Encode(sampleRecords()[:2])
	if err != nil {
		t.Fatal(err)
	}
	// Oversized length field in the second frame: decode stops after the
	// first record instead of allocating gigabytes.
	first, _ := Decode(data)
	_ = first
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	off := frameHeader + n
	binary.LittleEndian.PutUint32(data[off:off+4], uint32(MaxRecordBytes+1))
	recs, valid := Decode(data)
	if len(recs) != 1 || valid != off {
		t.Fatalf("got %d records, valid %d; want 1 record, valid %d", len(recs), valid, off)
	}
	// Zero length likewise ends the replay (a zeroed page, not a frame).
	binary.LittleEndian.PutUint32(data[off:off+4], 0)
	if recs, _ := Decode(data); len(recs) != 1 {
		t.Fatalf("zero length: got %d records, want 1", len(recs))
	}
}

func TestDecodeCRCMismatch(t *testing.T) {
	data, err := Encode(sampleRecords()[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the middle record.
	n0 := int(binary.LittleEndian.Uint32(data[0:4]))
	off1 := frameHeader + n0
	data[off1+frameHeader+2] ^= 0x40
	recs, valid := Decode(data)
	if len(recs) != 1 || valid != off1 {
		t.Fatalf("got %d records, valid %d; want 1 record, valid %d", len(recs), valid, off1)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	l, recs, dropped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || dropped != 0 {
		t.Fatalf("fresh log: %d records, %d dropped", len(recs), dropped)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn final write: append half a frame of garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	l2, recs, dropped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(sampleRecords()) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(sampleRecords()))
	}
	if dropped != int64(len(torn)) {
		t.Fatalf("dropped %d bytes, want %d", dropped, len(torn))
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("file not truncated: %d -> %d", before.Size(), after.Size())
	}

	// Appending after recovery lands cleanly at the truncation point.
	if err := l2.Append(Record{Op: OpCancelled, Job: "j00000003"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(sampleRecords())+1 || recs2[len(recs2)-1].Op != OpCancelled {
		t.Fatalf("post-recovery append lost: %d records", len(recs2))
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("hello world, definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-journal file")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _, _, err := Open(filepath.Join(t.TempDir(), "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(Record{Op: OpStarted, Job: "j1"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestCheckpointStoreRoundtrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("aig 1 2 3 binary payload \x00\xff pretend")
	in := Checkpoint{Job: "j00000001", Step: 2, Digest: "sha256:dddd", AIGER: payload}
	if err := s.SaveCheckpoint(in); err != nil {
		t.Fatal(err)
	}
	out, err := s.LoadCheckpoint("j00000001")
	if err != nil {
		t.Fatal(err)
	}
	if out.Job != in.Job || out.Step != in.Step || out.Digest != in.Digest || !bytes.Equal(out.AIGER, in.AIGER) {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}

	// Overwrite with a newer step; only the newest survives.
	in.Step = 3
	if err := s.SaveCheckpoint(in); err != nil {
		t.Fatal(err)
	}
	if out, err = s.LoadCheckpoint("j00000001"); err != nil || out.Step != 3 {
		t.Fatalf("overwrite: step %d err %v", out.Step, err)
	}
}

func TestCheckpointStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(Checkpoint{Job: "j1", Step: 1, Digest: "d", AIGER: []byte("payload bytes here")}); err != nil {
		t.Fatal(err)
	}
	path := s.checkpointPath("j1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit → CRC mismatch.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0x01
	os.WriteFile(path, flipped, 0o644)
	if _, err := s.LoadCheckpoint("j1"); err == nil {
		t.Fatal("bit-flipped checkpoint loaded")
	}

	// Truncate → length mismatch.
	os.WriteFile(path, data[:len(data)-5], 0o644)
	if _, err := s.LoadCheckpoint("j1"); err == nil {
		t.Fatal("truncated checkpoint loaded")
	}

	// Wrong magic.
	bad := append([]byte(nil), data...)
	copy(bad, "NOTACKPT")
	os.WriteFile(path, bad, 0o644)
	if _, err := s.LoadCheckpoint("j1"); err == nil {
		t.Fatal("foreign-magic checkpoint loaded")
	}

	// Missing blobs are errors too (the caller falls back to the input).
	s.Remove("j1")
	if _, err := s.LoadCheckpoint("j1"); err == nil {
		t.Fatal("removed checkpoint loaded")
	}
}

func TestStoreInputRoundtrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("binary aiger bytes")
	if err := s.SaveInput("j7", blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadInput("j7")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("LoadInput: %q, %v", got, err)
	}
	s.Remove("j7")
	if _, err := s.LoadInput("j7"); err == nil {
		t.Fatal("removed input loaded")
	}
}
