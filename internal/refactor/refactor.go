// Package refactor implements large-cone resynthesis in the style of
// ABC's `refactor` command: for each node, a reconvergence-driven cut of
// up to MaxLeaves inputs is computed, the cone's function is extracted as
// a wide truth table, re-synthesized by algebraic factoring of an
// irredundant sum-of-products cover (trying both polarities), and the
// factored form replaces the cone when it saves nodes.
//
// Refactoring complements 4-cut rewriting: it sees across much larger
// windows (10 inputs by default), catching redundancy that no 4-input
// replacement can express. Synthesis flows interleave the two (see the
// -script option of cmd/dacpara).
package refactor

import (
	"context"
	"sync/atomic"

	"dacpara/internal/aig"
	"dacpara/internal/bigtt"
	"dacpara/internal/cone"
	"dacpara/internal/engine"
	"dacpara/internal/metrics"
	"dacpara/internal/rewrite"
)

// Config tunes refactoring.
type Config struct {
	// MaxLeaves bounds the reconvergence-driven cut width (0: 10, ABC's
	// default; capped at bigtt.MaxVars).
	MaxLeaves int
	// MaxConeSize bounds the cone node count considered (0: 200).
	MaxConeSize int
	// ZeroGain also commits restructurings that do not change the count.
	ZeroGain bool
	// Metrics, when non-nil, collects the parallel engine's per-phase
	// timings and per-level parallelism (the serial path ignores it).
	Metrics *metrics.Collector
}

func (c Config) maxLeaves() int {
	n := c.MaxLeaves
	if n <= 0 {
		n = 10
	}
	if n > bigtt.MaxVars {
		n = bigtt.MaxVars
	}
	return n
}

func (c Config) maxCone() int {
	if c.MaxConeSize <= 0 {
		return 200
	}
	return c.MaxConeSize
}

// minGain is the commit threshold: 1 node saved, or 0 with ZeroGain.
func (c Config) minGain() int {
	if c.ZeroGain {
		return 0
	}
	return 1
}

// Run refactors the network in place and reports statistics in a
// rewrite.Result (the engines share the result shape).
func Run(a *aig.AIG, cfg Config) rewrite.Result {
	res, _ := RunCtx(context.Background(), a, cfg)
	return res
}

// RunCtx is Run under a context, driven by the engine framework as a
// serial commit (one sweep in topological order, immediate commits).
// Cancellation is observed every engine.SerialCancelStride nodes; a
// cancelled run returns the wrapped ctx error with a structurally
// consistent, partially refactored network and the Result marked
// Incomplete.
func RunCtx(ctx context.Context, a *aig.AIG, cfg Config) (rewrite.Result, error) {
	return engine.Run(ctx, a, &serialPass{r: newRefactorer(a, cfg)},
		engine.Plan{Name: "refactor", Partition: engine.Topo, SerialCommit: true}, engine.Exec{})
}

// serialPass is refactoring as a commit-only pass: each node end to end.
type serialPass struct {
	r        *refactorer
	attempts *atomic.Int64
}

func (p *serialPass) Begin(_ int, env engine.Env) { p.attempts = env.Attempts }

func (p *serialPass) Commit(_ int, id int32, _ engine.Locker) engine.Status {
	if !p.r.a.N(id).IsAnd() {
		return engine.StatusSkip
	}
	st := p.r.tryNode(id)
	if st != engine.StatusSkip {
		p.attempts.Add(1)
	}
	return st
}

// refactorer is one worker's state: the graph, and the scratch every
// node's evaluation reuses — the window, the cover computation, the
// complement of the cone function, the pool factored forms are built in
// and the stack factoring splits covers on. It serves one goroutine.
type refactorer struct {
	a       *aig.AIG
	cfg     Config
	win     *cone.Window
	isop    bigtt.Scratch
	neg     []uint64
	exprs   []expr
	cubes   []bigtt.Cube
	cubeTop int
	inst    instantiation
}

func newRefactorer(a *aig.AIG, cfg Config) *refactorer {
	return &refactorer{a: a, cfg: cfg, win: cone.New(a)}
}

// candidate is a replacement worth committing: the window, the cone
// function it was planned against, and the factored plan. The one
// evaluate returns lives in the refactorer's scratch until its next call.
type candidate struct {
	leaves []int32
	f      bigtt.TT
	plan   plan
}

// tryNode refactors one cone root.
func (r *refactorer) tryNode(root int32) engine.Status {
	c, st := r.evaluate(root)
	if c.leaves == nil {
		return st
	}
	if !r.apply(root, c.leaves, c.plan) {
		return engine.StatusSkip
	}
	return engine.StatusCommitted
}

// evaluate plans a replacement of root's cone on the current graph
// without touching it. Without a candidate (nil leaves) the status says
// why: StatusSkip when root has no usable window, StatusNoGain when the
// cheaper polarity's factored form does not pay.
func (r *refactorer) evaluate(root int32) (candidate, engine.Status) {
	leaves, ok := r.win.Cut(root, r.cfg.maxLeaves())
	if !ok || len(leaves) < 3 {
		return candidate{}, engine.StatusSkip
	}
	f, ok := r.coneFunction(root, leaves)
	if !ok {
		return candidate{}, engine.StatusSkip
	}
	pl := r.bestPlan(f)
	gain, ok := r.gain(root, leaves, pl)
	if !ok {
		return candidate{}, engine.StatusSkip
	}
	if gain < r.cfg.minGain() {
		return candidate{}, engine.StatusNoGain
	}
	return candidate{leaves: leaves, f: f, plan: pl}, engine.StatusSkip
}

// coneFunction computes root's function over the leaves, giving up on a
// cone of more than MaxConeSize+1 nodes (the simulation's own limit only
// bounds the work spent on one).
func (r *refactorer) coneFunction(root int32, leaves []int32) (bigtt.TT, bool) {
	f, ok := r.win.Simulate(root, leaves, r.cfg.maxCone())
	return f, ok && len(r.win.Cone()) <= r.cfg.maxCone()+1
}

// gain counts what replacing root by the plan saves on the current graph:
// the cone nodes that die with root, respecting sharing, less the gates
// structural hashing does not already hold.
func (r *refactorer) gain(root int32, leaves []int32, pl plan) (int, bool) {
	saved := r.win.MFFC(root, leaves)
	_, nNew, ok := r.instantiate(pl, leaves, root, false)
	return saved - nNew, ok
}

// apply builds the plan over the leaves and replaces root by it.
func (r *refactorer) apply(root int32, leaves []int32, pl plan) bool {
	out, _, ok := r.instantiate(pl, leaves, root, true)
	if !ok || out.Node() == root {
		return false
	}
	r.a.Replace(root, out, aig.ReplaceOptions{CascadeMerge: true})
	return true
}
