// Package guard wraps the rewriting engines in a fault-containment
// boundary: every engine run happens on a scratch copy of the network,
// under panic recovery and an optional deadline, and its output is
// verified (structural invariants plus a random-simulation equivalence
// screen against the input) before being committed back. When a run
// fails — an engine error such as retry-budget exhaustion, a panic, a
// timeout, or a verification violation — the scratch copy is discarded,
// the caller's network is untouched, and the guard degrades down a
// ladder of engines (by default dacpara → iccad18 → abc serial) until
// one produces a verified result. The full history of attempts is
// returned as a Report.
package guard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/metrics"
	"dacpara/internal/rewlib"
	"dacpara/internal/rewrite"
)

// DefaultLadder returns the degradation ladder starting at first: the
// requested engine, then the ICCAD'18 fused-lock engine, then the serial
// ABC engine — each rung trading throughput for a simpler concurrency
// model, so a rung is only ever followed by simpler ones: iccad18
// degrades to abc alone, and abc, the simplest, has nowhere to go. An
// empty first means rewrite.EngineDACPara.
func DefaultLadder(first rewrite.Engine) []rewrite.Engine {
	switch first {
	case "":
		first = rewrite.EngineDACPara
	case rewrite.EngineSerial:
		return []rewrite.Engine{first}
	case rewrite.EngineLockPar:
		return []rewrite.Engine{first, rewrite.EngineSerial}
	}
	return []rewrite.Engine{first, rewrite.EngineLockPar, rewrite.EngineSerial}
}

// The equivalence screen simulates simRounds rounds of 64 random
// patterns drawn from simSeed, so it is deterministic. It is one-sided: a
// mismatch proves the rewrite broke the function, a match is
// high-confidence but not a proof.
const (
	simRounds = 16
	simSeed   = 0
)

// Options configures guarded execution. The zero value runs
// DefaultLadder("") with no deadline.
type Options struct {
	// Engine is the first rung; the rest of the ladder follows from it
	// (DefaultLadder).
	Engine rewrite.Engine
	// Deadline bounds each attempt's wall-clock time; 0 means none. It is
	// a context deadline on the attempt: the engine observes it where it
	// observes cancellation, and the attempt returns once it has.
	Deadline time.Duration
	// Sabotage, when non-nil, is applied to the first rung's scratch
	// network after the engine runs and before verification. It exists so
	// tests (and chaos drills) can inject a corrupting fault and observe
	// the rollback + degradation path; production callers leave it nil.
	Sabotage func(*aig.AIG)
}

// Attempt records one rung of the ladder.
type Attempt struct {
	// Engine is the rung that ran.
	Engine rewrite.Engine
	// Result is the engine's own statistics (zero if it panicked; the
	// work done up to the deadline if it timed out).
	Result rewrite.Result
	// Duration is the attempt's wall-clock time as seen by the guard.
	Duration time.Duration
	// Err is the engine's error (e.g. a retry-budget exhaustion), "" if
	// it returned normally.
	Err string
	// Panic is the recovered panic value, "" if none.
	Panic string
	// TimedOut reports that the attempt exceeded Options.Deadline.
	TimedOut bool
	// Violation describes a post-run verification failure (invariant
	// breakage or simulation mismatch), "" if verification passed.
	Violation string
	// Committed reports that this rung's result was adopted.
	Committed bool
	// Metrics is the rung's instrumentation snapshot, present when the
	// caller set Config.Metrics and the engine returned one. The rungs
	// share the caller's collector; every run resets it on entry.
	Metrics *metrics.Snapshot
}

func (a Attempt) failure() string {
	switch {
	case a.TimedOut:
		return "deadline exceeded"
	case a.Panic != "":
		return "panic: " + a.Panic
	case a.Err != "":
		return a.Err
	case a.Violation != "":
		return a.Violation
	}
	return ""
}

// Report is the full history of one guarded rewrite.
type Report struct {
	// Attempts lists every rung tried, in order.
	Attempts []Attempt
	// Committed is the engine whose result was adopted, "" if every rung
	// failed.
	Committed rewrite.Engine
	// Degraded reports that the committed engine was not the first rung.
	Degraded bool
}

// String renders the report as one line per attempt.
func (r *Report) String() string {
	var b strings.Builder
	for i, a := range r.Attempts {
		if i > 0 {
			b.WriteByte('\n')
		}
		if a.Committed {
			fmt.Fprintf(&b, "guard: %-8s committed in %v (%d ands -> %d)",
				a.Engine, a.Duration.Round(time.Microsecond), a.Result.InitialAnds, a.Result.FinalAnds)
		} else {
			fmt.Fprintf(&b, "guard: %-8s failed after %v: %s",
				a.Engine, a.Duration.Round(time.Microsecond), a.failure())
		}
	}
	return b.String()
}

// ErrExhausted reports that every rung of the ladder failed; the caller's
// network is unchanged.
var ErrExhausted = errors.New("guard: every engine in the degradation ladder failed")

// attempt runs one engine on the scratch network, on the calling
// goroutine, under panic recovery and the deadline. The deadline is a
// context deadline: every engine polls its context at chunk, activity and
// 256-node boundaries and returns the wrapped ctx error with its worker
// team already stopped, so nothing of a timed-out attempt is still
// running when attempt returns. An engine that finishes in spite of an
// expired deadline has a result, and it is kept.
func attempt(ctx context.Context, eng rewrite.Engine, scratch *aig.AIG, lib *rewlib.Library, cfg rewrite.Config, deadline time.Duration) (res rewrite.Result, panicked string, err error) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			res, panicked, err = rewrite.Result{}, fmt.Sprintf("%v\n%s", p, debug.Stack()), nil
		}
	}()
	res, err = rewrite.Run(ctx, eng, scratch, lib, cfg)
	return res, "", err
}

// Rewrite optimizes net in place under the guard. On success the adopted
// result and the report are returned; on total failure net is unchanged
// and the error wraps ErrExhausted. An engine error on some rung never
// surfaces as Rewrite's error — it is recorded in the report and the
// guard degrades.
//
// The context is threaded into every engine attempt; when it is
// cancelled the guard stops the ladder — a cancellation is a caller
// decision, not an engine fault to degrade around — records the
// interrupted attempt in the report and returns the ctx error with the
// caller's network untouched. A rung that completes and verifies before
// the cancel is observed still commits.
func Rewrite(ctx context.Context, net *aig.AIG, lib *rewlib.Library, cfg rewrite.Config, opts Options) (rewrite.Result, *Report, error) {
	refSig := aig.RandomSignature(net, rand.New(rand.NewSource(simSeed)), simRounds)
	ladder := DefaultLadder(opts.Engine)
	// An unknown engine is a configuration error, not a runtime fault:
	// reject it up front instead of masking the typo by degrading.
	if !rewrite.Known(ladder[0]) {
		return rewrite.Result{}, nil, fmt.Errorf("guard: unknown engine %q", ladder[0])
	}
	rep := &Report{}
	for i, eng := range ladder {
		att := Attempt{Engine: eng}
		scratch := net.Clone()
		start := time.Now()
		res, panicked, err := attempt(ctx, eng, scratch, lib, cfg, opts.Deadline)
		att.Duration = time.Since(start)
		// The scratch copy's cut sets live under its own pointer: adopted
		// or discarded, nothing will ask for them again.
		cfg.CutCache.Drop(scratch)
		att.Result = res
		att.Metrics = res.Metrics
		switch {
		case panicked != "":
			att.Panic = panicked
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// The attempt's own deadline, not the caller's.
			att.TimedOut = true
		case err != nil:
			att.Err = err.Error()
		default:
			if i == 0 && opts.Sabotage != nil {
				opts.Sabotage(scratch)
			}
			if err := scratch.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
				att.Violation = "invariant violation: " + err.Error()
			} else if sig := aig.RandomSignature(scratch, rand.New(rand.NewSource(simSeed)), simRounds); !aig.EqualSignatures(refSig, sig) {
				att.Violation = "simulation mismatch against pre-rewrite snapshot"
			}
		}
		if f := att.failure(); f != "" {
			rep.Attempts = append(rep.Attempts, att)
			// A cancelled context is the caller aborting the whole guarded
			// run, not a rung fault: stop degrading and surface it.
			if cerr := ctx.Err(); cerr != nil {
				return rewrite.Result{}, rep, fmt.Errorf("guard: %w", cerr)
			}
			continue
		}
		att.Committed = true
		rep.Attempts = append(rep.Attempts, att)
		rep.Committed = eng
		rep.Degraded = i > 0
		net.Adopt(scratch)
		return att.Result, rep, nil
	}
	return rewrite.Result{}, rep, fmt.Errorf("%w (%d attempts; see report)", ErrExhausted, len(rep.Attempts))
}
