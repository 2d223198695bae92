package dacpara

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"dacpara/internal/rewrite"
)

// Job is the one serialisable description of an optimization run: what
// to run (one engine pass or a flow script), under which knobs, verified
// or not. The command line builds one from its flags,
// the daemon from a submission's query string; the journal records it,
// a cluster lease carries it, and Run executes it.
// Its JSON form is the `req` object of a journal record and of a lease
// frame.
type Job struct {
	// Engine is the rewriting engine of a single-pass job ("": dacpara).
	// Mutually exclusive with Flow.
	Engine Engine `json:"engine,omitempty"`
	// Flow, when non-empty, runs a whole synthesis script instead (see
	// ParseFlow).
	Flow string `json:"flow,omitempty"`

	// The engine knobs, with Config's meanings (Classes is
	// Config.NumClasses). Workers is a request; a service caps it at its
	// per-job budget.
	Workers       int  `json:"workers,omitempty"`
	K             int  `json:"k,omitempty"`
	Passes        int  `json:"passes,omitempty"`
	MaxCuts       int  `json:"max_cuts,omitempty"`
	MaxStructs    int  `json:"max_structs,omitempty"`
	Classes       int  `json:"classes,omitempty"`
	ZeroGain      bool `json:"zero_gain,omitempty"`
	PreserveDelay bool `json:"preserve_delay,omitempty"`

	// Verify checks the result against the input, with the function
	// Verify, before the run completes, spending at most VerifyBudget SAT
	// conflicts per output (0: the checker's default).
	Verify       bool  `json:"verify,omitempty"`
	VerifyBudget int64 `json:"verify_budget,omitempty"`
	// DeadlineNs bounds the job's wall-clock running time (0: unbounded).
	// Whoever owns the job's context enforces it — the service scheduler
	// wraps local runs and remote dispatch alike in it; Run observes ctx.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`

	// InputDigest is the structural digest of the submitted circuit; a
	// recovered input blob must re-digest to it or the job is not re-run.
	InputDigest string `json:"input_digest"`
}

// WithKnobs returns the job with its engine knobs taken from cfg.
func (j Job) WithKnobs(cfg Config) Job {
	j.Workers, j.K, j.Passes = cfg.Workers, cfg.K, cfg.Passes
	j.MaxCuts, j.MaxStructs, j.Classes = cfg.MaxCuts, cfg.MaxStructs, cfg.NumClasses
	j.ZeroGain, j.PreserveDelay = cfg.ZeroGain, cfg.PreserveDelay
	return j
}

// Config returns attach — whose process-local fields (Metrics, Fault)
// pass through — with the job's engine knobs.
func (j Job) Config(attach Config) Config {
	attach.Workers, attach.K, attach.Passes = j.Workers, j.K, j.Passes
	attach.MaxCuts, attach.MaxStructs, attach.NumClasses = j.MaxCuts, j.MaxStructs, j.Classes
	attach.ZeroGain, attach.PreserveDelay = j.ZeroGain, j.PreserveDelay
	return attach
}

// Validate rejects a job no run could execute — before anything touches
// a network, so a typo can never leave one half-transformed.
func (j Job) Validate() error {
	_, err := j.steps()
	return err
}

// steps validates the job and returns its parsed flow (nil for an engine
// job).
func (j Job) steps() ([]FlowStep, error) {
	var steps []FlowStep
	switch {
	case j.Flow != "" && j.Engine != "":
		return nil, errors.New("dacpara: job has both engine and flow")
	case j.Flow != "":
		var err error
		if steps, err = ParseFlow(j.Flow); err != nil {
			return nil, err
		}
	case j.Engine != "" && !slices.Contains(Engines(), j.Engine):
		return nil, fmt.Errorf("dacpara: unknown engine %q", j.Engine)
	}
	if j.K != 0 && (j.K < 4 || j.K > MaxCutWidth) {
		return nil, fmt.Errorf("dacpara: cut width k=%d out of range 4..%d", j.K, MaxCutWidth)
	}
	if min(j.Workers, j.Passes, j.MaxCuts, j.MaxStructs, j.Classes) < 0 ||
		min(j.VerifyBudget, j.DeadlineNs) < 0 {
		return nil, errors.New("dacpara: negative knob, budget or deadline")
	}
	return steps, nil
}

// Key is the result-cache key of the job on an input with the given
// structural digest: everything that shapes the result, and nothing
// that does not (the verification settings and the deadline).
func (j Job) Key(digest string) string {
	j.InputDigest, j.Verify, j.VerifyBudget, j.DeadlineNs = digest, false, 0, 0
	key, _ := json.Marshal(j) // a struct of scalars cannot fail to marshal
	return string(key)
}

// FlowCheckpoint observes step-boundary states of a flow run: it is
// called after each step completes with the number of steps finished so
// far (the index the flow would resume from) and the current network.
// The network is live flow state — observe or serialize it, do not
// mutate it. A non-nil error aborts the flow.
type FlowCheckpoint func(completed int, net *Network) error

// Hooks are what a caller injects into a run that cannot be serialised
// with its Job; the zero value runs the job from the start, in-process.
type Hooks struct {
	// ResumeStep skips the first ResumeStep commands of a flow job's
	// (fully re-validated) script — net must then be the state those
	// steps produced, e.g. a restored checkpoint. A value equal to the
	// script length is valid and runs nothing (the crash happened
	// between the last step and the final acknowledgement).
	ResumeStep int
	// Checkpoint, when non-nil, runs after every completed flow step —
	// with ResumeStep, the primitive durable crash recovery is built on.
	Checkpoint FlowCheckpoint
	// Attach supplies the process-local fields of the run's Config —
	// Metrics, Fault (with its retry budget). Its knob fields are ignored:
	// the Job's apply.
	Attach Config
}

// Verdict is the outcome of a job's equivalence check.
type Verdict struct {
	// Equivalent is the check's verdict (input vs optimized output).
	Equivalent bool `json:"equivalent"`
	// Proved is true when SAT finished every output within the conflict
	// budget; false means simulation-only confidence.
	Proved bool `json:"proved"`
}

// ErrNotEquivalent fails a verified run whose result is not equivalent
// to its input.
var ErrNotEquivalent = errors.New("verification: result not equivalent to input")

// Outcome is everything one run produced. After an error it covers the
// work done up to that point: Net is the latest structurally consistent
// state and Steps the flow steps that finished.
type Outcome struct {
	// Net is the optimized network. An engine job rewrites the argument
	// in place; a flow's balance steps rebuild the graph, so for a flow
	// job Net may be a different pointer.
	Net *Network
	// Result is the run record: the engine's own for a single pass, the
	// script-spanning summary for a flow.
	Result Result
	// Steps holds a flow job's per-command results.
	Steps []Result
	// Verify is the verdict of the job's equivalence check, nil when
	// none ran.
	Verify *Verdict
}

// Run executes the job on net: it is the one place that chooses engine
// or flow and then verifies, and the one failure boundary: a step that
// fails ends the run with its error, and nothing is retried on another
// engine. A retry-budget exhaustion (*galois.RetryBudgetError) or a
// cancelled or expired ctx (the wrapped ctx error) leaves the network
// structurally consistent and the Result marked Incomplete; a panicking
// worker comes back as a *galois.PanicError, after which the network is
// suspect. Job.Verify is the one equivalence check.
// Cancelling ctx stops the run at the next cancellation point (between
// flow steps and inside every step; see rewrite.Run); no goroutines
// outlive the call. When Hooks.Attach.Metrics
// is set, every instrumented step resets the collector on entry and
// attaches its own snapshot to its Result, so a flow yields one
// snapshot per rewriting, refactor or resub step.
func Run(ctx context.Context, net *Network, job Job, h Hooks) (Outcome, error) {
	out := Outcome{Net: net}
	steps, err := job.steps()
	if err != nil {
		return out, err
	}
	if job.Flow == "" && job.Engine == "" {
		job.Engine = EngineDACPara
	}
	cfg := job.Config(h.Attach)
	var golden *Network
	if job.Verify {
		// A resumed job verifies against the state it resumed from: the
		// checkpointed prefix was verified by digest at recovery.
		golden = net.Clone()
	}
	if job.Flow != "" {
		err = runFlow(ctx, &out, steps, cfg, h)
	} else {
		out.Result, err = rewriteStep(ctx, net, job.Engine, cfg)
	}
	if err != nil || golden == nil {
		return out, err
	}
	out.Verify, err = Verify(golden, out.Net, job.VerifyBudget)
	return out, err
}

// rewriteStep runs one rewriting engine over net in place.
func rewriteStep(ctx context.Context, net *Network, eng Engine, cfg Config) (Result, error) {
	lib, err := DefaultLibrary()
	if err != nil {
		return Result{}, err
	}
	return rewrite.Run(ctx, eng, net, lib, cfg)
}

// Encode renders a network as binary AIGER, the form every result and
// checkpoint blob takes. Every run ends canonical (bar one a panic
// stopped, whose network is suspect anyway), so the blob parses back to
// a graph with the network's aig.StructuralDigest.
func Encode(net *Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := net.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
