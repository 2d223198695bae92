package dacpara

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dacpara/internal/balance"
	"dacpara/internal/cec"
	"dacpara/internal/refactor"
	"dacpara/internal/resub"
)

// FlowStep is one validated command of a flow script.
type FlowStep struct {
	// Cmd is the canonical command name (aliases resolved).
	Cmd string
	// ZeroGain reports the -z flag.
	ZeroGain bool
	// Workers is the per-step worker override from -w=N (0: use the
	// flow Config's Workers).
	Workers int
	// K is the cut-width override from -k=N on rewriting commands
	// (0: use the flow Config's K).
	K int
	// Engine is non-empty for rewriting commands (rewrite and the engine
	// names), empty for the other transforms.
	Engine Engine
}

// flowAliases maps the ABC-style short command names to the canonical
// ones.
var flowAliases = map[string]string{
	"b":  "balance",
	"rw": "rewrite",
	"rf": "refactor",
	"rs": "resub",
}

// ParseFlow parses and validates a whole flow script without touching
// any network: unknown commands and flags are rejected up front, so a
// script error can never leave a network half-transformed by the
// commands that preceded the typo. A flow job (Job.Flow) runs the steps
// it returns.
//
// A script is an ABC-style semicolon-separated command sequence, e.g.
//
//	"balance; rewrite; refactor; balance; rewrite -z; balance"
//
// (the classic resyn2 shape). Supported commands: every Engine name
// (abc, iccad18, dacpara, dac22, tcad23), rewrite (= dacpara), balance,
// refactor, resub and fraig, plus the ABC short aliases b, rw, rf, rs.
//
// Flags: rewrite, refactor and resub accept -z (zero-gain commits) and a
// per-step -w=N worker override; rewriting commands accept a per-step
// -k=N cut-width override (4..6, see Config.K; "-k 6" and "-k=6" are
// both accepted):
//
//	"b; rw -k 6; rf; rs -w=8; b"
//
// refactor and resub also accept -p and ignore it: old scripts and
// journaled jobs carry it.
func ParseFlow(script string) ([]FlowStep, error) {
	var steps []FlowStep
	for _, raw := range strings.Split(script, ";") {
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		st := FlowStep{Cmd: fields[0]}
		if canon, ok := flowAliases[st.Cmd]; ok {
			st.Cmd = canon
		}
		for fi := 1; fi < len(fields); fi++ {
			f := fields[fi]
			switch {
			case f == "-z":
				st.ZeroGain = true
			case f == "-p" && (st.Cmd == "refactor" || st.Cmd == "resub"):
				// Accepted and ignored (see above).
			case strings.HasPrefix(f, "-w="):
				n, err := strconv.Atoi(f[len("-w="):])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("dacpara: flow command %q: bad worker count %q", st.Cmd, f)
				}
				st.Workers = n
			case f == "-k" || strings.HasPrefix(f, "-k="):
				// Both "-k 6" and "-k=6" are accepted.
				arg := strings.TrimPrefix(f, "-k=")
				if f == "-k" {
					if fi+1 >= len(fields) {
						return nil, fmt.Errorf("dacpara: flow command %q: -k needs a cut width", st.Cmd)
					}
					fi++
					arg = fields[fi]
				}
				n, err := strconv.Atoi(arg)
				if err != nil || n < 4 || n > MaxCutWidth {
					return nil, fmt.Errorf("dacpara: flow command %q: bad cut width %q (want 4..%d)", st.Cmd, arg, MaxCutWidth)
				}
				st.K = n
			default:
				return nil, fmt.Errorf("dacpara: flow command %q: unknown flag %q", st.Cmd, f)
			}
		}
		switch st.Cmd {
		case "balance", "fraig":
			if st.ZeroGain || st.Workers != 0 || st.K != 0 {
				return nil, fmt.Errorf("dacpara: flow command %q does not accept flags", st.Cmd)
			}
		case "refactor", "resub":
			if st.K != 0 {
				return nil, fmt.Errorf("dacpara: flow command %q: -k= applies to rewriting commands only", st.Cmd)
			}
		case "rewrite":
			st.Engine = EngineDACPara
		default:
			st.Engine = Engine(st.Cmd)
			if !slices.Contains(Engines(), st.Engine) {
				return nil, fmt.Errorf("dacpara: flow: unknown command %q", st.Cmd)
			}
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// FlowResumeContext is Run on Job{Flow: script} with cfg's knobs and
// attachments, under ctx, with the resume cursor and step-boundary
// checkpoint of Hooks. It returns the per-command results and the final
// network (balance and fraig rebuild the graph, so the returned pointer
// may differ from the argument).
func FlowResumeContext(ctx context.Context, net *Network, script string, cfg Config, startStep int, checkpoint FlowCheckpoint) ([]Result, *Network, error) {
	out, err := Run(ctx, net, Job{Flow: script}.WithKnobs(cfg), Hooks{ResumeStep: startStep, Checkpoint: checkpoint, Attach: cfg})
	return out.Steps, out.Net, err
}

// runFlow drives a whole-circuit flow job: steps from the resume cursor
// on, one at a time, the checkpoint hook after each. On an error the
// outcome holds the steps that finished and the latest network.
func runFlow(ctx context.Context, out *Outcome, steps []FlowStep, cfg Config, h Hooks) error {
	if h.ResumeStep < 0 || h.ResumeStep > len(steps) {
		return fmt.Errorf("dacpara: flow: resume step %d out of range [0, %d]", h.ResumeStep, len(steps))
	}
	// Every step's area, the rebuilding ones' too, counts live logic
	// only: balance and fraig would otherwise book the dead logic they
	// drop as optimization. No step leaves dead logic behind, so one
	// sweep before the first covers them all. A flow cancelled before it
	// starts leaves the network as it is.
	if ctx.Err() == nil {
		out.Net.Sweep()
	}
	for i := h.ResumeStep; i < len(steps); i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dacpara: flow: %w", err)
		}
		res, err := runFlowStep(ctx, out, steps[i], cfg)
		if err != nil {
			return err
		}
		out.Steps = append(out.Steps, res)
		if h.Checkpoint != nil {
			if cerr := h.Checkpoint(i+1, out.Net); cerr != nil {
				return fmt.Errorf("dacpara: flow: checkpoint after step %d: %w", i, cerr)
			}
		}
	}
	out.Result = summarizeFlow(out.Steps, out.Net)
	return nil
}

// runFlowStep executes one validated step on out.Net, replacing it when
// the step rebuilds the graph.
func runFlowStep(ctx context.Context, out *Outcome, st FlowStep, cfg Config) (Result, error) {
	net := out.Net
	// workers resolves the per-step override against the job's.
	workers := cfg.Workers
	if st.Workers > 0 {
		workers = st.Workers
	}
	switch st.Cmd {
	case "balance":
		before := net.Stats()
		balanced, err := balance.Run(ctx, net)
		if err != nil {
			return Result{Engine: "balance", Threads: 1, Passes: 1, Incomplete: true}, err
		}
		out.Net = balanced
		after := balanced.Stats()
		return Result{
			Engine:       "balance",
			Threads:      1,
			Passes:       1,
			InitialAnds:  before.Ands,
			FinalAnds:    after.Ands,
			InitialDelay: before.Delay,
			FinalDelay:   after.Delay,
		}, nil
	case "refactor":
		return refactor.Run(ctx, net, refactor.Config{ZeroGain: st.ZeroGain, Metrics: cfg.Metrics}, workers)
	case "resub":
		return resub.Run(ctx, net, resub.Config{ZeroGain: st.ZeroGain, Metrics: cfg.Metrics}, workers)
	case "fraig":
		// Like balance, fraig rebuilds the graph, and like balance's its
		// result goes on under a new pointer.
		before := net.Stats()
		reduced, fr := cec.Reduced(net, cec.FraigOptions{})
		out.Net = reduced
		after := reduced.Stats()
		return Result{
			Engine:       "fraig",
			Threads:      1,
			Passes:       1,
			Replacements: fr.Merged,
			InitialAnds:  before.Ands,
			FinalAnds:    after.Ands,
			InitialDelay: before.Delay,
			FinalDelay:   after.Delay,
		}, nil
	}
	cfg.ZeroGain = st.ZeroGain
	cfg.Workers = workers
	if st.K > 0 {
		cfg.K = st.K
	}
	return rewriteStep(ctx, net, st.Engine, cfg)
}

// summarizeFlow folds a flow's per-step results into one job-level
// summary: the QoR spans first input to final output, the work counters
// accumulate across steps, Threads is the most any step ran with (each
// step resolves a defaulted worker count itself), and the metrics
// snapshot is the last instrumented step's.
func summarizeFlow(steps []Result, final *Network) Result {
	out := Result{Engine: "flow", Passes: len(steps)}
	if len(steps) > 0 {
		out.InitialAnds = steps[0].InitialAnds
		out.InitialDelay = steps[0].InitialDelay
	}
	st := final.Stats()
	out.FinalAnds = st.Ands
	out.FinalDelay = st.Delay
	for _, r := range steps {
		out.Threads = max(out.Threads, r.Threads)
		out.Replacements += r.Replacements
		out.Attempts += r.Attempts
		out.Stale += r.Stale
		out.Commits += r.Commits
		out.Aborts += r.Aborts
		out.InjectedAborts += r.InjectedAborts
		out.CommittedWork += r.CommittedWork
		out.WastedWork += r.WastedWork
		out.Duration += r.Duration
		if r.Metrics != nil {
			out.Metrics = r.Metrics
		}
	}
	return out
}

// Resyn2 is the classic ABC optimization script shape adapted to the
// engines available here.
const Resyn2 = "balance; rewrite; refactor; balance; rewrite; rewrite -z; balance; refactor -z; rewrite -z; balance"

// Resyn2rs is the resubstitution-enhanced variant (ABC's resyn2rs shape).
const Resyn2rs = "balance; resub; rewrite; refactor; resub -z; rewrite -z; balance; resub -z; refactor -z; rewrite -z; balance"
