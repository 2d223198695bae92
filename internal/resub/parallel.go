package resub

import (
	"context"
	"slices"

	"dacpara/internal/aig"
	"dacpara/internal/bigtt"
	"dacpara/internal/engine"
	"dacpara/internal/rewrite"
)

// RunParallel applies the paper's divide-and-conquer principle to
// resubstitution: nodes are divided by level; the expensive stage —
// window growth, cone simulation and divisor matching — runs lock-free
// in parallel against the immutable graph (barrier semantics, like
// DACPara's paraEvaOperator), and a serial commit stage re-validates
// every stored candidate on the latest graph before substituting.
func RunParallel(a *aig.AIG, cfg Config, workers int) rewrite.Result {
	res, _ := RunParallelCtx(context.Background(), a, cfg, workers)
	return res
}

// RunParallelCtx is RunParallel under a context, driven by the engine
// framework (level worklists, lock-free evaluation, serial revalidating
// commit). Cancellation is observed at level boundaries; a cancelled run
// returns the wrapped ctx error with a structurally consistent,
// partially resubstituted network and the Result marked Incomplete.
func RunParallelCtx(ctx context.Context, a *aig.AIG, cfg Config, workers int) (rewrite.Result, error) {
	return engine.Run(ctx, a, &resubPass{a: a, cfg: cfg}, engine.Plan{
		Name:      "resub-dacpara",
		Partition: engine.ByLevel,
		// Substitutions rewire whole MFFCs; instead of locking them, the
		// serial commit re-validates every stored candidate on the
		// latest graph (version, window function, divisor liveness,
		// re-counted gain).
		SerialCommit: true,
	}, engine.Exec{Workers: workers, Metrics: cfg.Metrics})
}

// resubPrep is one node's stored candidate plus everything commit-time
// revalidation needs: the window and the function it was matched
// against, both copied out of the searching worker's scratch.
type resubPrep struct {
	cand    resubCand
	rootVer uint32
	leaves  []int32
	f       bigtt.TT
}

// resubPass is resubstitution as a framework pass: Evaluate runs the
// divisor search lock-free and stores the first match; Commit
// re-validates it on the latest graph before substituting.
type resubPass struct {
	a   *aig.AIG
	cfg Config

	// states holds one resubber per worker slot; none is ever used by two
	// goroutines.
	states []*resubber
	prep   []resubPrep
}

var (
	_ engine.Pass      = (*resubPass)(nil)
	_ engine.Evaluator = (*resubPass)(nil)
)

func (p *resubPass) Begin(slots int, _ engine.Env) {
	p.states = make([]*resubber, slots)
	for w := range p.states {
		p.states[w] = newResubber(p.a, p.cfg)
	}
	p.prep = make([]resubPrep, p.a.Capacity())
}

func (p *resubPass) Evaluate(worker int, id int32) bool {
	p.prep[id] = resubPrep{}
	if !p.a.N(id).IsAnd() {
		return false
	}
	cand, leaves, f, _ := p.states[worker].search(id)
	if cand.kind != candNone {
		p.prep[id] = resubPrep{cand: cand, rootVer: p.a.N(id).Version(), leaves: slices.Clone(leaves), f: f.Clone()}
	}
	return true
}

func (p *resubPass) Stored(id int32) bool { return p.prep[id].cand.kind != candNone }

func (p *resubPass) Commit(worker int, id int32, _ engine.Locker) engine.Status {
	c := &p.prep[id]
	r := p.states[worker]
	a, w := p.a, r.win
	// Dynamic re-validation on the latest graph: the root must be
	// untouched, the window leaves alive, the window function unchanged,
	// the candidate's divisors still outside the (re-counted) MFFC, and
	// the substitution relation must still hold over the recomputed
	// divisor functions.
	if a.N(id).Version() != c.rootVer || !a.N(id).IsAnd() {
		return engine.StatusStale
	}
	for _, l := range c.leaves {
		if a.N(l).IsDead() {
			return engine.StatusStale
		}
	}
	f, ok := w.Simulate(id, c.leaves, maxCone)
	if !ok || !f.Equal(c.f) {
		return engine.StatusStale
	}
	// A copy adds no gate; an AND or XOR is charged one.
	cost := 1
	if c.cand.kind == candCopy {
		cost = 0
	}
	if w.MFFC(id, c.leaves)-cost < p.cfg.minGain() {
		return engine.StatusNoGain
	}
	// A divisor is a leaf or a cone node that survives the substitution.
	t1, ok1 := w.TableOf(c.cand.l1.Node())
	if !ok1 || w.InMFFC(c.cand.l1.Node()) {
		return engine.StatusStale
	}
	var holds bool
	if c.cand.kind != candCopy {
		t2, ok2 := w.TableOf(c.cand.l2.Node())
		holds = ok2 && !w.InMFFC(c.cand.l2.Node()) &&
			matching(t1.Words(), t2.Words(), f.Words(), bigtt.WordMask(len(c.leaves)), 1<<c.cand.form()) != 0
	} else if c.cand.l1.Compl() {
		holds = t1.EqualNot(f)
	} else {
		holds = t1.Equal(f)
	}
	if !holds {
		return engine.StatusStale
	}
	if r.apply(id, c.cand) == engine.StatusCommitted {
		return engine.StatusCommitted
	}
	return engine.StatusNoGain
}
