package refactor

import (
	"context"
	"slices"

	"dacpara/internal/aig"
	"dacpara/internal/engine"
	"dacpara/internal/rewrite"
)

// RunParallel applies the paper's divide-and-conquer principle to
// refactoring: nodes are divided by level; each list's expensive stage —
// reconvergence-cut computation, cone extraction and SOP factoring — runs
// lock-free in parallel against the immutable graph (barrier semantics,
// like DACPara's paraEvaOperator), and a serial commit stage re-validates
// every stored plan on the latest graph before replacing. This
// demonstrates the transfer of the paper's three-stage split beyond
// 4-cut rewriting (its conclusion calls the approach "scalable and
// continuously explorable").
func RunParallel(a *aig.AIG, cfg Config, workers int) rewrite.Result {
	res, _ := RunParallelCtx(context.Background(), a, cfg, workers)
	return res
}

// RunParallelCtx is RunParallel under a context, driven by the engine
// framework (level worklists, lock-free evaluation, serial revalidating
// commit). Cancellation is observed at level boundaries; a cancelled run
// returns the wrapped ctx error with a structurally consistent,
// partially refactored network and the Result marked Incomplete.
func RunParallelCtx(ctx context.Context, a *aig.AIG, cfg Config, workers int) (rewrite.Result, error) {
	return engine.Run(ctx, a, &refactorPass{a: a, cfg: cfg}, engine.Plan{
		Name:      "refactor-dacpara",
		Partition: engine.ByLevel,
		// Replacements rewire whole cones; instead of locking them, the
		// serial commit re-validates every stored plan on the latest
		// graph (version, cone function, re-counted gain).
		SerialCommit: true,
	}, engine.Exec{Workers: workers, Metrics: cfg.Metrics})
}

// refPrep is one node's stored candidate, copied out of the evaluating
// worker's scratch, and the root version it was planned at.
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
	prep   []refPrep
}

var (
	_ engine.Pass      = (*refactorPass)(nil)
	_ engine.Evaluator = (*refactorPass)(nil)
)

func (p *refactorPass) Begin(slots int, _ engine.Env) {
	p.states = make([]*refactorer, slots)
	for w := range p.states {
		p.states[w] = newRefactorer(p.a, p.cfg)
	}
	p.prep = make([]refPrep, p.a.Capacity())
}

func (p *refactorPass) Evaluate(worker int, id int32) bool {
	p.prep[id] = refPrep{}
	if !p.a.N(id).IsAnd() {
		return false
	}
	if c, _ := p.states[worker].evaluate(id); c.leaves != nil {
		p.prep[id] = refPrep{
			candidate: candidate{leaves: slices.Clone(c.leaves), f: c.f.Clone(), plan: c.plan.stored()},
			rootVer:   p.a.N(id).Version(),
		}
	}
	return true
}

func (p *refactorPass) Stored(id int32) bool { return p.prep[id].leaves != nil }

func (p *refactorPass) Commit(worker int, id int32, _ engine.Locker) engine.Status {
	c := &p.prep[id]
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
