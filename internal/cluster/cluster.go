// Package cluster turns dacparad into a fault-tolerant fleet: a
// coordinator that owns admission, the journal and the result cache
// hands jobs to workers under time-bounded leases, and workers pull
// work over HTTP, stream AIGER blobs, heartbeat while running, upload
// per-step flow checkpoints, and stream results back on completion.
//
// The package is designed failure-first. A worker that stops
// heartbeating loses its lease and the job is re-enqueued from its last
// uploaded checkpoint on another worker; every worker→coordinator RPC
// carries a deadline and retries under capped exponential backoff with
// jitter (see Retry); a per-job attempt budget moves repeatedly-failing
// jobs to a terminal failure instead of poisoning the fleet; and with
// zero live workers the coordinator's Dispatch refuses (or hands back
// the latest checkpoint) so the caller can degrade to local in-process
// execution rather than stalling the queue.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"dacpara"
	"dacpara/internal/aig"
)

// Config tunes the coordinator's failure detector; the zero value gets
// the documented defaults.
type Config struct {
	// Lease is how long a worker may hold a job without a heartbeat
	// before the coordinator declares it dead and re-enqueues the job
	// (default 15s).
	Lease time.Duration
	// Heartbeat is the cadence advertised to workers at registration
	// (default Lease/3, so a worker may lose two consecutive beats to
	// network jitter and still keep its lease).
	Heartbeat time.Duration
	// Sweep is the failure-detector scan period (default Lease/4,
	// floored at 10ms).
	Sweep time.Duration
	// MaxAttempts bounds how many leases one job may consume before it
	// is declared failed with its last error (default 3). Crashed
	// workers and worker-reported failures both consume attempts.
	MaxAttempts int
	// PollWait is how long a worker's poll request is held open waiting
	// for work before an empty reply (default 10s).
	PollWait time.Duration
	// LiveWindow is how stale a worker's last contact may be before it
	// no longer counts as live for dispatch decisions (default
	// Lease + PollWait: an idle worker re-polls every PollWait, a busy
	// one heartbeats well inside Lease).
	LiveWindow time.Duration
	// MaxBlobBytes bounds checkpoint and result uploads (default 256
	// MiB), so a corrupt length or a hostile worker cannot make the
	// coordinator allocate without bound.
	MaxBlobBytes int64
	// SkewGrace pads lease expiry to tolerate bounded clock skew and
	// scheduling jitter between coordinator and workers. 0 (the
	// default) sizes the grace adaptively per worker, from how much its
	// observed heartbeat cadence overshoots the advertised one (capped
	// at Lease/2); a negative value disables the grace entirely.
	SkewGrace time.Duration
	// FlapThreshold is how many lease expiries one worker may
	// accumulate within LiveWindow before the coordinator quarantines
	// it — a flapping worker burns attempt budgets without ever
	// finishing, so it stops getting leases instead of getting the next
	// one (default 3; negative disables quarantining).
	FlapThreshold int
	// Quarantine is how long a flapping worker is barred from new
	// leases (default 4×Lease). Quarantined workers may still poll and
	// heartbeat; they just get no work until the window lapses.
	Quarantine time.Duration
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 15 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.Lease / 3
	}
	if c.Sweep <= 0 {
		c.Sweep = c.Lease / 4
		if c.Sweep < 10*time.Millisecond {
			c.Sweep = 10 * time.Millisecond
		}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	if c.LiveWindow <= 0 {
		c.LiveWindow = c.Lease + c.PollWait
	}
	if c.MaxBlobBytes <= 0 {
		c.MaxBlobBytes = 256 << 20
	}
	if c.FlapThreshold == 0 {
		c.FlapThreshold = 3
	}
	if c.Quarantine <= 0 {
		c.Quarantine = 4 * c.Lease
	}
	return c
}

// Task is one unit of remote work: the job spec (the same struct the
// journal records and Run executes) plus the flow cursor to resume from. The
// input network travels separately as a streamed AIGER blob — for a
// first attempt the submitted circuit, for a failover re-dispatch the
// last uploaded checkpoint.
type Task struct {
	// Job is the coordinator-side job ID.
	Job string `json:"job"`
	// Req carries engine/flow, config knobs, seed, verify settings and
	// the input digest.
	Req dacpara.Job `json:"req"`
	// ResumeStep is the flow cursor the worker starts from (0 for a
	// fresh run; >0 only for flow jobs resuming a checkpoint).
	ResumeStep int `json:"resume_step,omitempty"`
	// Attempt is 1 for the first lease on this job, incremented on every
	// re-dispatch.
	Attempt int `json:"attempt"`
	// BlobDigest is the structural digest of the AIGER blob streamed
	// with this lease (the submitted circuit, or the checkpoint a
	// failover resumes from). Workers verify the received blob against
	// it and refuse to compute on a corrupted transfer; empty skips the
	// check.
	BlobDigest string `json:"blob_digest,omitempty"`
}

// RemoteResult is one remotely-completed job: the optimized circuit and
// the run record, plus which worker/attempt produced it.
type RemoteResult struct {
	// AIGER is the optimized network, binary AIGER encoded.
	AIGER []byte
	// Result is the engine/flow run record as computed on the worker.
	Result dacpara.Result
	// Verify is the worker-side equivalence verdict, nil when the job
	// did not request verification.
	Verify *dacpara.Verdict
	// Worker and Attempt identify the lease that completed the job.
	Worker  string
	Attempt int
}

// BlobCorruptError reports a transferred circuit blob whose bytes do
// not match the structural digest declared for it — a corrupted stream
// caught at the transfer boundary, before it could become a wrong
// answer. It is retryable: the sender's copy is intact, only the wire
// bytes were damaged, so the cure is a fresh transfer.
type BlobCorruptError struct {
	Job  string
	Kind string // "input", "checkpoint", "result"
	// Want is the declared digest; Got is what the received bytes hash
	// to ("" when they did not even decode).
	Want string
	Got  string
}

func (e *BlobCorruptError) Error() string {
	if e.Got == "" {
		return fmt.Sprintf("cluster: job %s: %s blob corrupt (undecodable; want digest %s)", e.Job, e.Kind, e.Want)
	}
	return fmt.Sprintf("cluster: job %s: %s blob corrupt: digest %s, want %s", e.Job, e.Kind, e.Got, e.Want)
}

// verifyBlob checks a transferred AIGER blob against its declared
// structural digest. An empty want skips the check (senders that never
// learned the digest).
func verifyBlob(kind, job, want string, blob []byte) error {
	if want == "" {
		return nil
	}
	n, err := aig.Read(bytes.NewReader(blob))
	if err != nil {
		return &BlobCorruptError{Job: job, Kind: kind, Want: want}
	}
	if got := aig.StructuralDigest(n); got != want {
		return &BlobCorruptError{Job: job, Kind: kind, Want: want, Got: got}
	}
	return nil
}

// ErrNoWorkers reports a Dispatch attempted with zero live workers; the
// caller should run the job locally instead of queueing it behind a
// fleet that does not exist.
var ErrNoWorkers = errors.New("cluster: no live workers")

// AttemptsExhaustedError is Dispatch's terminal failure: the job burned
// its whole attempt budget (worker crashes and worker-reported failures
// both count) and is not retried again.
type AttemptsExhaustedError struct {
	Job      string
	Attempts int
	LastErr  string
}

func (e *AttemptsExhaustedError) Error() string {
	return fmt.Sprintf("cluster: job %s failed %d attempts (budget exhausted); last error: %s",
		e.Job, e.Attempts, e.LastErr)
}

// WorkersLostError reports that the fleet died out from under a
// dispatched job: the lease holder is gone and no live worker remains
// to re-dispatch to. State carries the last uploaded checkpoint (nil if
// none was uploaded) so the caller can finish the job locally from
// where the dead worker left off instead of restarting.
type WorkersLostError struct {
	Job string
	// ResumeStep is the flow cursor of State (0: restart from input).
	ResumeStep int
	// State is the last uploaded checkpoint's binary AIGER, nil when the
	// job must restart from its input.
	State []byte
}

func (e *WorkersLostError) Error() string {
	return fmt.Sprintf("cluster: job %s: all workers lost (resume step %d); degrading to local execution", e.Job, e.ResumeStep)
}

// registration is the coordinator's reply to POST /cluster/register:
// the failure-detector parameters the worker must live by.
type registration struct {
	LeaseNs     int64 `json:"lease_ns"`
	HeartbeatNs int64 `json:"heartbeat_ns"`
	PollWaitNs  int64 `json:"poll_wait_ns"`
}

// pollHeader heads a poll response's framed body (the AIGER input blob
// follows it).
type pollHeader struct {
	Task  Task   `json:"task"`
	Lease string `json:"lease"`
}

// resultHeader heads a result upload's framed body (the optimized AIGER
// blob follows it).
type resultHeader struct {
	Result dacpara.Result   `json:"result"`
	Verify *dacpara.Verdict `json:"verify,omitempty"`
}

// heartbeatReply tells a worker whether to keep going ("ok") or abandon
// the job ("cancel": the coordinator-side job was cancelled or timed
// out). A lease the coordinator no longer recognizes answers 410
// instead.
type heartbeatReply struct {
	Status string `json:"status"`
}

// writeFramed streams a JSON header followed by a raw blob: u32
// little-endian header length, the header, then the blob to EOF. It is
// the wire shape of poll responses and result uploads — the blob is
// written as-is, never base64-inflated.
func writeFramed(w io.Writer, hdr any, blob []byte) error {
	h, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(h)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	if _, err := w.Write(h); err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// maxFrameHeaderBytes bounds the JSON header of a framed message.
const maxFrameHeaderBytes = 4 << 20

// readFramed reverses writeFramed, bounding both parts.
func readFramed(r io.Reader, hdr any, maxBlob int64) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, fmt.Errorf("cluster: frame length: %w", err)
	}
	hlen := binary.LittleEndian.Uint32(n[:])
	if hlen == 0 || hlen > maxFrameHeaderBytes {
		return nil, fmt.Errorf("cluster: frame header %d bytes out of range", hlen)
	}
	h := make([]byte, hlen)
	if _, err := io.ReadFull(r, h); err != nil {
		return nil, fmt.Errorf("cluster: frame header: %w", err)
	}
	if err := json.Unmarshal(h, hdr); err != nil {
		return nil, fmt.Errorf("cluster: frame header: %w", err)
	}
	blob, err := io.ReadAll(io.LimitReader(r, maxBlob+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: frame blob: %w", err)
	}
	if int64(len(blob)) > maxBlob {
		return nil, fmt.Errorf("cluster: frame blob exceeds %d bytes", maxBlob)
	}
	return blob, nil
}
