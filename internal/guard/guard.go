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
// model. An empty first means rewrite.EngineDACPara.
func DefaultLadder(first rewrite.Engine) []rewrite.Engine {
	if first == "" {
		first = rewrite.EngineDACPara
	}
	ladder := []rewrite.Engine{first}
	for _, e := range []rewrite.Engine{rewrite.EngineLockPar, rewrite.EngineSerial} {
		if e != first {
			ladder = append(ladder, e)
		}
	}
	return ladder
}

// Options configures guarded execution. The zero value runs the default
// ladder with no deadline and a 16-round simulation screen.
type Options struct {
	// Engine is the first rung of the ladder (default rewrite.EngineDACPara).
	// Ignored when Ladder is set explicitly.
	Engine rewrite.Engine
	// Ladder overrides the engine sequence; nil means
	// DefaultLadder(Engine).
	Ladder []rewrite.Engine
	// Deadline bounds each attempt's wall-clock time; 0 means none. A
	// timed-out engine keeps running on its (discarded) scratch copy
	// until its bounded retries let it finish, so a timeout never blocks
	// the degradation.
	Deadline time.Duration
	// SimRounds is the number of 64-pattern random simulation rounds in
	// the equivalence screen (default 16). The screen is one-sided: a
	// mismatch proves the rewrite broke the function, a match is
	// high-confidence but not a proof.
	SimRounds int
	// Seed seeds the simulation patterns, making the screen
	// deterministic.
	Seed int64
	// Sabotage, when non-nil, is applied to the first rung's scratch
	// network after the engine runs and before verification. It exists so
	// tests (and chaos drills) can inject a corrupting fault and observe
	// the rollback + degradation path; production callers leave it nil.
	Sabotage func(*aig.AIG)
}

func (o Options) simRounds() int {
	if o.SimRounds <= 0 {
		return 16
	}
	return o.SimRounds
}

// Attempt records one rung of the ladder.
type Attempt struct {
	// Engine is the rung that ran.
	Engine rewrite.Engine
	// Result is the engine's own statistics (zero if it timed out or
	// panicked before returning).
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
	// caller set Config.Metrics and the engine returned (nil after a
	// timeout or panic). Each rung runs with its own collector: a
	// timed-out engine keeps running on its abandoned scratch copy, so
	// sharing one collector across rungs would race.
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

type outcome struct {
	res      rewrite.Result
	err      error
	panicked string
}

// attempt runs one engine on the scratch network under panic recovery
// and the deadline. On timeout the goroutine is abandoned: it only
// touches the scratch copy, which the caller discards, and the engine's
// bounded retries guarantee it terminates eventually. A cancelled
// context unblocks the wait the same way — the engines observe
// cancellation only at pass boundaries, and a caller enforcing a
// wall-clock deadline (e.g. the daemon's per-job deadline) should not
// wait out a slow pass for an attempt it is about to discard; a result
// that raced the cancel is still drained and kept.
func attempt(ctx context.Context, eng rewrite.Engine, scratch *aig.AIG, lib *rewlib.Library, cfg rewrite.Config, deadline time.Duration) (outcome, bool) {
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{panicked: fmt.Sprintf("%v\n%s", p, debug.Stack())}
			}
		}()
		res, err := rewrite.Run(ctx, eng, scratch, lib, cfg)
		ch <- outcome{res: res, err: err}
	}()
	var timeout <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case o := <-ch:
		return o, false
	case <-timeout:
		return outcome{}, true
	case <-ctx.Done():
		select {
		case o := <-ch:
			return o, false
		default:
		}
		return outcome{err: ctx.Err()}, false
	}
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
	rounds := opts.simRounds()
	refSig := aig.RandomSignature(net, rand.New(rand.NewSource(opts.Seed)), rounds)

	ladder := opts.Ladder
	if len(ladder) == 0 {
		ladder = DefaultLadder(opts.Engine)
	}
	// An unknown engine is a configuration error, not a runtime fault:
	// reject it up front instead of masking the typo by degrading.
	for _, eng := range ladder {
		if !rewrite.Known(eng) {
			return rewrite.Result{}, nil, fmt.Errorf("guard: unknown engine %q", eng)
		}
	}
	rep := &Report{}
	for i, eng := range ladder {
		att := Attempt{Engine: eng}
		scratch := net.Clone()
		acfg := cfg
		if cfg.Metrics != nil {
			acfg.Metrics = metrics.New()
		}
		start := time.Now()
		o, timedOut := attempt(ctx, eng, scratch, lib, acfg, opts.Deadline)
		att.Duration = time.Since(start)
		// The scratch copy's cut sets live under its own pointer: adopted
		// or discarded, nothing will ask for them again.
		cfg.CutCache.Drop(scratch)
		att.Result = o.res
		att.Metrics = o.res.Metrics
		switch {
		case timedOut:
			att.TimedOut = true
		case o.panicked != "":
			att.Panic = o.panicked
		case o.err != nil:
			att.Err = o.err.Error()
		default:
			if i == 0 && opts.Sabotage != nil {
				opts.Sabotage(scratch)
			}
			if err := scratch.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
				att.Violation = "invariant violation: " + err.Error()
			} else if sig := aig.RandomSignature(scratch, rand.New(rand.NewSource(opts.Seed)), rounds); !aig.EqualSignatures(refSig, sig) {
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
