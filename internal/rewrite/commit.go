package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
	"dacpara/internal/rewlib"
	"dacpara/internal/tt"
)

// planLimit bounds the number of nodes one replacement may touch; beyond
// it the candidate is skipped rather than letting a single activity lock
// an unbounded region.
const planLimit = 2048

// Execute re-validates candidate cand against the latest AIG and, if it
// still yields an acceptable gain, commits the replacement. This is the
// paper's replacement operator (Section 4.4): the stored cut must still be
// a cut of the node (leaves alive, or re-enumerated and matched), the
// stored structure must still match the cut function's NPN class, and the
// gain is re-evaluated on the current graph before any mutation. Under a
// lock (iccad18) all affected nodes are locked before the first mutation
// (cautious operator), so a conflict abort never needs rollback. A stale
// or no-gain verdict is one of the paper's "missed optimization
// opportunities".
func (e *Evaluator) Execute(cm *cut.Manager, cand *Candidate, lock engine.Locker) (gain int, st engine.Status) {
	a, s := e.A, e.Scratch
	root := cand.Root
	lk := func(id int32) bool { return lock == nil || lock(id) }
	if !lk(root) {
		return 0, engine.StatusConflict
	}
	rn := a.N(root)
	if !rn.IsAnd() || rn.Version() != cand.RootVer {
		// The node was rewritten away (its ID possibly reused for new
		// logic) since evaluation: the stored information is outdated.
		return 0, engine.StatusStale
	}

	// 1. Establish a valid cut on the latest graph.
	c := cand.Cut
	for i := uint8(0); i < c.Size; i++ {
		if !lk(c.Leaves[i]) {
			return 0, engine.StatusConflict
		}
	}
	if !c.Fresh(a) {
		// Some leaf was deleted (and its ID possibly reused): re-enumerate
		// on the current graph and match the stored leaf set against the
		// fresh cut set, as the paper prescribes for the Fig. 3 hazard.
		if !cm.RefreshP(root, lock, e.CutPool) {
			return 0, engine.StatusConflict
		}
		set, _ := cm.CutsP(root, e.CutPool)
		matched := false
		for i := range set {
			if set[i].SameLeaves(&cand.Cut) {
				c = set[i]
				matched = true
				break
			}
		}
		if !matched {
			return 0, engine.StatusStale
		}
	}

	// 2. Recompute the cut function on the current graph under locks. This
	// both revalidates that the leaf set still covers the cone and yields
	// the authoritative truth table for NPN matching.
	curTT, ok, conflict := s.coneTT(a, root, &c, lock)
	if conflict {
		return 0, engine.StatusConflict
	}
	if !ok {
		return 0, engine.StatusStale
	}

	// 3. Resolve the replacement literal plan for the current function,
	// locking every existing node the new logic will reuse.
	var out aig.Lit
	outNew := false
	nNew := 0
	var str *rewlib.Structure
	switch cand.Kind {
	case CandConst:
		if curTT != tt.False64 && curTT != tt.True64 {
			return 0, engine.StatusStale
		}
		out = aig.LitFalse.XorCompl(curTT == tt.True64)
	case CandWire:
		wc := c
		wc.TT = curTT
		leaf, phase, isWire := wireFunc(&wc)
		if !isWire {
			return 0, engine.StatusStale
		}
		out = aig.MakeLit(leaf, phase)
	case CandStruct:
		// The NPN class of the stored equivalent structure must still
		// match the cut's truth table (Section 4.4).
		cls, repr, structs, inv := e.forest(c.Size, curTT)
		if cls != cand.Class || repr != cand.Repr || cand.Struct >= len(structs) {
			return 0, engine.StatusStale
		}
		str = &structs[cand.Struct]
		s.bind(inv, &c)
		s.forget()
		s.conflict = false
		var ok bool
		if nNew, ok = s.plan(a, str, root, len(str.Nodes), lock); s.conflict {
			return 0, engine.StatusConflict
		} else if !ok {
			return 0, engine.StatusStale
		}
		if e.Cfg.PreserveDelay && s.level(a, str) > rn.Level() {
			return 0, engine.StatusNoGain
		}
		out, outNew = s.out(str)
	default:
		return 0, engine.StatusStale
	}

	// 4. Simulate the full replacement (fanout redirection, cascaded
	// simplifications, cone deletion) on a reference-count overlay,
	// locking every node it would touch, so the commit below mutates only
	// locked nodes and the gain is exact on the latest graph. The overlay
	// starts from the references the new gates will add to existing nodes.
	sim := newReplaceSim(a, lock, s)
	if str != nil {
		for k, g := range str.Nodes {
			if s.vals[gateBase+k] != litNew {
				continue
			}
			for _, in := range [2]rewlib.SLit{g.In0, g.In1} {
				if l := s.lit(in); l < litNew && !l.IsConst() {
					s.ov.at(l.Node()).delta++
				}
			}
		}
	}
	deleted, okSim, conflictSim := sim.run(root, out, outNew)
	switch {
	case conflictSim:
		return 0, engine.StatusConflict
	case !okSim:
		// The rehearsal gave up (more than planLimit nodes, or one node
		// twice in the cascade): the candidate is skipped as no gain.
		return 0, engine.StatusNoGain
	}

	gain = deleted - nNew
	minGain := 1
	if e.Cfg.ZeroGain {
		minGain = 0
	}
	if gain < minGain && !e.TrustStoredGain {
		return gain, engine.StatusNoGain
	}

	// 5. Commit: build the new gates, then redirect and delete. Every node
	// touched from here on is locked.
	if str != nil {
		for k, g := range str.Nodes {
			if s.vals[gateBase+k] == litNew {
				s.vals[gateBase+k] = a.AndWith(s.lit(g.In0), s.lit(g.In1), lock)
			}
		}
		out, _ = s.out(str)
	}
	if out.Node() == root {
		return 0, engine.StatusStale
	}
	a.Replace(root, out, aig.ReplaceOptions{CascadeMerge: e.CascadeMerge})
	// 6. Give back the cut sets of the nodes the replacement deleted. A
	// cascade merge may delete more, which keep their storage.
	for _, id := range s.dead {
		if a.N(id).IsDead() {
			cm.Release(id, e.CutPool)
		}
	}
	return gain, engine.StatusCommitted
}

// level estimates the level (depth) the output of the planned structure
// will have, for delay-preserving mode. Levels of existing nodes may be
// slightly stale after rewriting; the estimate is a heuristic bound, like
// ABC's update-level option.
func (s *Scratch) level(a *aig.AIG, st *rewlib.Structure) int32 {
	n := gateBase + len(st.Nodes)
	if n > len(s.lvl) {
		s.lvl = make([]int32, n)
	}
	lvl := s.lvl[:n]
	for i := range lvl {
		lvl[i] = 0
		if l := s.vals[i]; l < litNone {
			lvl[i] = a.N(l.Node()).Level()
		} else if i >= gateBase {
			g := st.Nodes[i-gateBase]
			lvl[i] = 1 + max(lvl[slot(g.In0)], lvl[slot(g.In1)])
		}
	}
	return lvl[slot(st.Out)]
}

// coneTT recomputes the function of root over the cut's leaves by walking
// the cone on the current graph, locking every inner node. ok is false
// when the leaf set no longer covers the cone (a path escapes to a PI,
// the constant, or past the traversal budget). The budget is 64 nodes for
// classic 4-input cuts (matching the hardwired-K engine exactly) and
// wider for large cuts, whose cones are legitimately bigger.
func (s *Scratch) coneTT(a *aig.AIG, root int32, c *cut.Cut, lock engine.Locker) (f tt.Func64, ok, conflict bool) {
	s.ov.begin()
	s.coneLeft = 64
	if c.Size > 4 {
		s.coneLeft = 512
	}
	return s.coneFunc(a, root, c, lock)
}

func (s *Scratch) coneFunc(a *aig.AIG, id int32, c *cut.Cut, lock engine.Locker) (f tt.Func64, ok, conflict bool) {
	for i := uint8(0); i < c.Size; i++ {
		if c.Leaves[i] == id {
			return tt.Var64(int(i)), true, false
		}
	}
	if e := s.ov.at(id); e.known {
		return e.f, true, false
	}
	if s.coneLeft--; s.coneLeft < 0 {
		return 0, false, false
	}
	if lock != nil && !lock(id) {
		return 0, false, true
	}
	n := a.N(id)
	if !n.IsAnd() {
		return 0, false, false
	}
	f0, f1 := n.Fanin0(), n.Fanin1()
	t0, ok, conflict := s.coneFunc(a, f0.Node(), c, lock)
	if !ok {
		return 0, false, conflict
	}
	t1, ok, conflict := s.coneFunc(a, f1.Node(), c, lock)
	if !ok {
		return 0, false, conflict
	}
	if f0.Compl() {
		t0 = t0.Not()
	}
	if f1.Compl() {
		t1 = t1.Not()
	}
	e := s.ov.at(id)
	e.f, e.known = t0.And(t1), true
	return e.f, true, false
}
