// Package refactor implements large-cone resynthesis in the style of
// ABC's `refactor` command: for each node, a reconvergence-driven cut of
// up to maxLeaves inputs is computed, the cone's function is extracted as
// a wide truth table, re-synthesized by algebraic factoring of an
// irredundant sum-of-products cover (trying both polarities), and the
// factored form replaces the cone when it saves nodes.
//
// Refactoring complements 4-cut rewriting: it sees across much larger
// windows (10 inputs), catching redundancy that no 4-input replacement
// can express. Synthesis flows interleave the two (see the -script option
// of cmd/dacpara).
package refactor

import (
	"context"
	"slices"

	"dacpara/internal/aig"
	"dacpara/internal/bigtt"
	"dacpara/internal/cone"
	"dacpara/internal/engine"
	"dacpara/internal/metrics"
	"dacpara/internal/rewrite"
)

// The window bounds: the reconvergence-driven cut width (ABC's default)
// and the cone node count considered.
const (
	maxLeaves = 10
	maxCone   = 200
)

// Config tunes refactoring.
type Config struct {
	// ZeroGain also commits restructurings that do not change the count.
	ZeroGain bool
	// Metrics, when non-nil, collects the engine's per-phase timings and
	// per-level parallelism.
	Metrics *metrics.Collector
}

// minGain is the commit threshold: 1 node saved, or 0 with ZeroGain.
func (c Config) minGain() int {
	if c.ZeroGain {
		return 0
	}
	return 1
}

// Run refactors the network in place and reports statistics in a
// rewrite.Result (the engines share the result shape). It applies the
// paper's divide-and-conquer principle to refactoring: nodes are divided
// by level; each list's expensive stage — reconvergence-cut computation,
// cone extraction and SOP factoring — runs lock-free on the workers
// against the immutable graph (barrier semantics, like DACPara's
// paraEvaOperator), and a serial commit stage re-validates every stored
// plan on the latest graph before replacing. The output does not depend
// on the worker count. Cancellation is observed at level boundaries; a
// cancelled run returns the wrapped ctx error with a structurally
// consistent, partially refactored network and the Result marked
// Incomplete.
func Run(ctx context.Context, a *aig.AIG, cfg Config, workers int) (rewrite.Result, error) {
	// Replacements rewire whole cones; instead of locking them, the
	// engine's serial commit re-validates every stored plan on the latest
	// graph (version, cone function, re-counted gain).
	return engine.Run[refPrep](ctx, a, &refactorPass{a: a, cfg: cfg},
		engine.Plan{Name: "refactor", Partition: engine.ByLevel},
		engine.Exec{Workers: workers, Metrics: cfg.Metrics})
}

// refPrep is one node's stored candidate, copied out of the evaluating
// worker's scratch, and the root version it was planned at: the engine
// keeps it from the sweep to the commit.
type refPrep struct {
	candidate
	rootVer uint32
}

// refactorPass is refactoring as a framework pass: Evaluate runs the
// expensive window/factoring work lock-free and stores a plan; Commit
// re-validates it on the latest graph before replacing.
type refactorPass struct {
	a   *aig.AIG
	cfg Config

	// states holds one refactorer per worker slot; none is ever used by
	// two goroutines.
	states []*refactorer
}

var (
	_ engine.Pass[refPrep]      = (*refactorPass)(nil)
	_ engine.Evaluator[refPrep] = (*refactorPass)(nil)
)

func (p *refactorPass) Begin(slots int, _ engine.Env) {
	p.states = make([]*refactorer, slots)
	for w := range p.states {
		p.states[w] = newRefactorer(p.a, p.cfg)
	}
}

func (p *refactorPass) Evaluate(worker int, id int32, cand *refPrep) (stored, counted bool) {
	if !p.a.N(id).IsAnd() {
		return false, false
	}
	c := p.states[worker].evaluate(id)
	if c.leaves == nil {
		return false, true
	}
	*cand = refPrep{
		candidate: candidate{leaves: slices.Clone(c.leaves), f: c.f.Clone(), plan: c.plan.stored()},
		rootVer:   p.a.N(id).Version(),
	}
	return true, true
}

func (p *refactorPass) Commit(worker int, id int32, c *refPrep, _ engine.Locker) engine.Status {
	r := p.states[worker]
	// Dynamic re-validation: the stored plan is applied only if the cone
	// still computes the same function over still-alive leaves and the
	// gain re-verifies on the latest graph.
	if p.a.N(id).Version() != c.rootVer || !p.a.N(id).IsAnd() {
		return engine.StatusStale
	}
	if cur, ok := r.coneFunction(id, c.leaves); !ok || !cur.Equal(c.f) {
		return engine.StatusStale
	}
	gain, ok := r.gain(id, c.leaves, c.plan)
	if !ok || gain < p.cfg.minGain() || !r.apply(id, c.leaves, c.plan) {
		return engine.StatusNoGain
	}
	return engine.StatusCommitted
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

// evaluate plans a replacement of root's cone on the current graph
// without touching it. It returns no candidate (nil leaves) when root has
// no usable window or the cheaper polarity's factored form does not pay.
func (r *refactorer) evaluate(root int32) candidate {
	leaves, ok := r.win.Cut(root, maxLeaves)
	if !ok || len(leaves) < 3 {
		return candidate{}
	}
	f, ok := r.coneFunction(root, leaves)
	if !ok {
		return candidate{}
	}
	pl := r.bestPlan(f)
	if gain, ok := r.gain(root, leaves, pl); !ok || gain < r.cfg.minGain() {
		return candidate{}
	}
	return candidate{leaves: leaves, f: f, plan: pl}
}

// coneFunction computes root's function over the leaves, giving up on a
// cone of more than maxCone+1 nodes (the simulation's own limit only
// bounds the work spent on one).
func (r *refactorer) coneFunction(root int32, leaves []int32) (bigtt.TT, bool) {
	f, ok := r.win.Simulate(root, leaves, maxCone)
	return f, ok && len(r.win.Cone()) <= maxCone+1
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
