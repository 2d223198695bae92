// Package journal is the durability substrate of the optimization
// service: an append-only, fsync'd, CRC-framed write-ahead log of job
// lifecycle records plus an atomic blob store for input circuits and
// flow-step checkpoints (see store.go). The log is what lets dacparad
// survive kill -9: every state transition that matters is on disk
// before the service acknowledges it, and replay after a crash
// tolerates a torn or corrupted tail by truncating to the longest
// valid prefix instead of refusing to start.
//
// The package is deliberately low-level — raw records and raw bytes; the
// only type it shares with the engines is the job spec a submitted
// record carries — so it can be fuzzed in isolation and reused by
// anything that needs crash-safe appends.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dacpara"
)

// Op is a job lifecycle event kind.
type Op string

// The journal record kinds, mirroring the service's job state machine:
// submitted → started → step checkpoints → one terminal op.
const (
	OpSubmitted        Op = "submitted"
	OpStarted          Op = "started"
	OpCheckpoint       Op = "checkpoint"
	OpDone             Op = "done"
	OpFailed           Op = "failed"
	OpCancelled        Op = "cancelled"
	OpDeadlineExceeded Op = "deadline_exceeded"
	// OpLeased records a cluster lease grant: the job left the coordinator
	// for a worker. Non-terminal — a crash-recovered job whose last record
	// is a lease is re-enqueued like any interrupted job.
	OpLeased Op = "leased"
	// OpLeaseExpired records a failed lease (missed heartbeats or a
	// worker-reported error) and the re-enqueue that followed.
	OpLeaseExpired Op = "lease_expired"
)

// Terminal reports whether the op ends a job's lifecycle; a job whose
// last record is non-terminal was interrupted and must be re-enqueued
// on recovery.
func (o Op) Terminal() bool {
	switch o {
	case OpDone, OpFailed, OpCancelled, OpDeadlineExceeded:
		return true
	}
	return false
}

// Request is the replayable half of a job submission — the job spec
// itself, one definition shared with the facade and the cluster wire:
// everything needed to re-run the job after a restart except the input
// circuit, which lives in the blob store (keyed by job ID,
// integrity-checked against InputDigest at recovery).
type Request = dacpara.Job

// Record is one framed journal entry.
type Record struct {
	Op  Op     `json:"op"`
	Job string `json:"job"`
	// TimeNs is the wall-clock time of the event (UnixNano).
	TimeNs int64 `json:"t,omitempty"`
	// Step, on OpCheckpoint, is the number of flow steps completed — the
	// index the flow resumes from.
	Step int `json:"step,omitempty"`
	// Digest, on OpCheckpoint, is the structural digest of the
	// checkpointed network; the checkpoint blob must match it to be
	// trusted.
	Digest string `json:"digest,omitempty"`
	// Err carries the failure message on OpFailed/OpCancelled/
	// OpDeadlineExceeded.
	Err string `json:"err,omitempty"`
	// Req is present on OpSubmitted only.
	Req *Request `json:"req,omitempty"`
	// Worker, on OpLeased/OpLeaseExpired, names the worker holding (or
	// having held) the lease.
	Worker string `json:"worker,omitempty"`
	// Attempt, on OpLeased/OpLeaseExpired, is the 1-based lease count for
	// the job.
	Attempt int `json:"attempt,omitempty"`
}

// logMagic heads every journal file; a file that does not start with it
// is not a journal (refused loudly, never "replayed" as empty).
const logMagic = "DACJNL1\n"

// MaxRecordBytes bounds one record's encoded payload. A corrupt length
// field can therefore never drive a multi-gigabyte allocation during
// replay — anything larger is treated as tail corruption.
const MaxRecordBytes = 1 << 20

// frameHeader is the per-record overhead: u32 payload length + u32
// CRC-32C of the payload, both little-endian.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNotJournal reports a file whose header is not a journal's.
var ErrNotJournal = errors.New("journal: bad file magic")

// appendFrame appends one encoded record to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Encode renders records into framed bytes (no file magic). It exists
// for tests and fuzzing; the Log appends frames itself.
func Encode(recs []Record) ([]byte, error) {
	var buf []byte
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		if len(payload) > MaxRecordBytes {
			return nil, fmt.Errorf("journal: record payload %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
		}
		buf = appendFrame(buf, payload)
	}
	return buf, nil
}

// Decode replays framed bytes (no file magic) and returns the decoded
// records together with the byte length of the longest valid prefix.
// Decoding never fails and never panics: a torn frame, a corrupt
// length, a CRC mismatch or malformed JSON simply ends the replay at
// the last record that checked out — exactly the crash-recovery
// semantics, where the tail of the file is the write that was in
// flight when the power went out.
func Decode(data []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for {
		if len(data)-off < frameHeader {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > MaxRecordBytes || len(data)-off-frameHeader < n {
			return recs, off
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return recs, off
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil || r.Op == "" {
			return recs, off
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
}

// Log is an append-only journal file. Every Append is fsync'd before it
// returns: once the service acts on a state transition, the transition
// is on disk.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int64
	closed  bool
}

// Open opens (or creates) the journal at path, replays its records, and
// truncates any torn or corrupt tail so the file ends at the last valid
// record before appending resumes. It returns the replayed records and
// the number of tail bytes dropped.
func Open(path string) (*Log, []Record, int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	l := &Log{f: f, path: path}
	if len(data) == 0 {
		if _, err := f.Write([]byte(logMagic)); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		return l, nil, 0, nil
	}
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != logMagic {
		f.Close()
		return nil, nil, 0, fmt.Errorf("%w: %s", ErrNotJournal, path)
	}
	recs, valid := Decode(data[len(logMagic):])
	dropped := int64(len(data) - len(logMagic) - valid)
	if dropped > 0 {
		if err := f.Truncate(int64(len(logMagic) + valid)); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
	}
	if _, err := f.Seek(int64(len(logMagic)+valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	l.records = int64(len(recs))
	return l, recs, dropped, nil
}

// Append encodes, writes and fsyncs one record. After Close it returns
// an error (the crash simulation in the service tests relies on this:
// a closed log is a dead disk).
func (l *Log) Append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("journal: record payload %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
	}
	frame := appendFrame(nil, payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("journal: log is closed")
	}
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.records++
	return nil
}

// Records returns the number of records in the log (replayed + appended).
func (l *Log) Records() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Close closes the underlying file; further Appends fail. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
