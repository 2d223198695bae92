package rewrite

import (
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
	"dacpara/internal/metrics"
	"dacpara/internal/rewlib"
)

// fusedPass does all of a node's work in its commit: cut enumeration,
// evaluation and replacement back to back. It is two engines of the
// comparison.
//
// Under the speculative executor it is the ICCAD'18 operator
// (EngineLockPar): ONE activity per node that holds exclusive locks on
// every related node it touches — the cut cones, the reused shared
// logic, the fanouts. When any lock is already held by another activity
// the whole operator aborts and all of its computation (including the
// expensive evaluation) is discarded and redone later — exactly the
// waste the paper's Fig. 2 illustrates and DACPara's split operators
// avoid.
//
// In a serial commit (nil lock) it is ABC's `rewrite` (EngineSerial):
// one visit per node in topological order, immediate commits, so every
// node sees the latest graph. Non-AND nodes are skipped at visit time —
// the worklist is the full topological order and nodes die mid-pass.
type fusedPass struct {
	a       *aig.AIG
	lib     *rewlib.Library
	cfg     Config
	cascade bool // Evaluator.CascadeMerge

	cm  *cut.Manager
	evs []*Evaluator
	env engine.Env
}

var _ engine.Pass[Candidate] = (*fusedPass)(nil)

func (p *fusedPass) Begin(slots int, env engine.Env) {
	p.cm = runManager(p.cm, p.a, p.cfg)
	p.evs = make([]*Evaluator, slots)
	for w := range p.evs {
		p.evs[w] = NewEvaluator(p.a, p.lib, p.cfg)
		p.evs[w].CascadeMerge = p.cascade
		p.evs[w].CutPool = env.CutPool(w)
	}
	p.env = env
}

// Commit ignores the engine's candidate: a commit-only pass is given none.
func (p *fusedPass) Commit(worker int, id int32, _ *Candidate, lock engine.Locker) engine.Status {
	// One fused activity: enumeration, evaluation and replacement back
	// to back under one lock set, the node's own lock taken by the
	// framework, which also traces every conflict verdict. The shard
	// timings attribute in-operator time to the three logical stages so
	// the fused engine's snapshot is comparable with the split engines'.
	var sh *metrics.Shard
	var t0 time.Time
	if p.env.Shards != nil {
		sh = &p.env.Shards[worker]
		t0 = time.Now()
	}
	if !p.a.N(id).IsAnd() {
		return engine.StatusSkip
	}
	ev := p.evs[worker]
	// Enumeration: lock the recursive region whose cut sets the
	// operator reads or writes.
	pool := p.env.CutPool(worker)
	if !p.cm.EnsureP(id, lock, pool) {
		return engine.StatusConflict
	}
	cuts, _ := p.cm.CutsP(id, pool)
	// The fused operator holds the locks of all cut leaves for its
	// whole lifetime: evaluation scans their fanout lists for shared
	// logic, and replacement mutates them.
	if lock != nil {
		for i := range cuts {
			for _, leaf := range cuts[i].LeafSlice() {
				if !lock(leaf) {
					return engine.StatusConflict
				}
			}
		}
	}
	var t1 time.Time
	if sh != nil {
		t1 = time.Now()
		sh.EnumNs += t1.Sub(t0).Nanoseconds()
	}
	cand, conflict := ev.EvaluateLocked(id, cuts, lock)
	if sh != nil {
		t2 := time.Now()
		sh.EvalNs += t2.Sub(t1).Nanoseconds()
		sh.Evals++
		t1 = t2
	}
	if conflict {
		// The expensive evaluation is discarded with the activity — the
		// fused-operator waste of the paper's Fig. 2.
		if sh != nil {
			sh.WastedEvals++
		}
		return engine.StatusConflict
	}
	if !cand.Ok() {
		return engine.StatusSkip
	}
	p.env.Attempts.Add(1)
	_, st := ev.Execute(p.cm, &cand, lock)
	if sh != nil {
		sh.ReplaceNs += time.Since(t1).Nanoseconds()
		if st == engine.StatusConflict {
			sh.WastedEvals++
		}
	}
	return st
}
