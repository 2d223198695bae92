package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
	"dacpara/internal/rewlib"
)

// Pass adapts DAG-aware rewriting to the pass-engine framework: cut
// enumeration as the Enumerate hook — lock-free, the cut manager's
// entries publish themselves — library matching as the lock-free
// Evaluate hook filling the engine's Candidate slot, and Execute's
// revalidate-then-replace as the Commit hook. The same adapter serves
// every split-operator rewriting engine — DACPara per level and the
// DAC'22/TCAD'23 static models over the whole graph — differing only in
// the variant knobs below and the engine.Plan it runs under.
type Pass struct {
	A   *aig.AIG
	Lib *rewlib.Library
	Cfg Config

	CascadeMerge bool // Evaluator.CascadeMerge
	// TrustStoredGain makes commits trust the evaluation-time gain
	// instead of re-evaluating it on the latest graph — the static GPU
	// models' behaviour (decisions from static global information).
	TrustStoredGain bool
	// SkipStaleLeaves rejects a stored candidate whenever any leaf of
	// its cut has been deleted by an earlier replacement — the DAC'22
	// (NovelRewrite) conditional-replacement rule.
	SkipStaleLeaves bool

	cm  *cut.Manager
	env engine.Env
	evs []*Evaluator
}

var (
	_ engine.Pass[Candidate]      = (*Pass)(nil)
	_ engine.Enumerator           = (*Pass)(nil)
	_ engine.Evaluator[Candidate] = (*Pass)(nil)
)

func (p *Pass) Begin(slots int, env engine.Env) {
	p.cm = runManager(p.cm, p.A, p.Cfg)
	p.env = env
	p.evs = make([]*Evaluator, slots)
	for w := range p.evs {
		p.evs[w] = NewEvaluator(p.A, p.Lib, p.Cfg)
		p.evs[w].TrustStoredGain = p.TrustStoredGain
		p.evs[w].CascadeMerge = p.CascadeMerge
		p.evs[w].CutPool = env.CutPool(w)
	}
	// Ensure the PI and constant cut sets once, serially: every
	// recursive enumeration bottoms out on them.
	p.cm.Ensure(0, nil)
	for _, pi := range p.A.PIs() {
		p.cm.Ensure(pi, nil)
	}
}

// runManager returns the run's cut manager: a new one for its first
// pass, cm with every set forgotten for each later one, so that every
// pass recomputes its sets into the storage the last one left.
func runManager(cm *cut.Manager, a *aig.AIG, cfg Config) *cut.Manager {
	if cm == nil {
		return cut.NewManager(a, cut.Params{K: cfg.K, MaxCuts: cfg.MaxCuts})
	}
	cm.NextEpoch()
	return cm
}

func (p *Pass) Enumerate(worker int, id int32) {
	if p.A.N(id).IsAnd() {
		p.cm.EnsureP(id, nil, p.env.CutPool(worker))
	}
}

// Evaluate fills the node's slot of the engine's candidate store — the
// paper's prepInfo, whose capacity is the AIG's there and the longest
// worklist's here.
func (p *Pass) Evaluate(worker int, id int32, cand *Candidate) (stored, counted bool) {
	if !p.A.N(id).IsAnd() {
		return false, false
	}
	cuts, ok := p.cm.CutsP(id, p.env.CutPool(worker))
	if !ok {
		return false, false
	}
	*cand = p.evs[worker].Evaluate(id, cuts)
	return cand.Ok(), true
}

func (p *Pass) Commit(worker int, id int32, cand *Candidate, lock engine.Locker) engine.Status {
	if p.SkipStaleLeaves && !cand.Cut.Fresh(p.A) {
		return engine.StatusStale
	}
	_, st := p.evs[worker].Execute(p.cm, cand, lock)
	return st
}
