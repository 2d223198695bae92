package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
	"dacpara/internal/tt"
)

// The routines below are the evaluation kernel as it was before it was
// rebuilt — the MFFC counted in a map by a recursive closure, every
// structure walked to its end through get closures, every gate looked up
// afresh for every structure — kept as the oracle the budgeted, memoised
// kernel is held to, node by node.

type refScratch struct {
	delta map[int32]int32
	vals  []aig.Lit
	virt  []bool
}

func (s *refScratch) coneSavings(a *aig.AIG, root int32, c *cut.Cut) int {
	clear(s.delta)
	var rec func(id int32) int
	rec = func(id int32) int {
		count := 1
		n := a.N(id)
		for _, f := range [2]aig.Lit{n.Fanin0(), n.Fanin1()} {
			fid := f.Node()
			fn := a.N(fid)
			if !fn.IsAnd() || c.Contains(fid) {
				continue
			}
			r := fn.Ref() + s.delta[fid] - 1
			s.delta[fid]--
			if r == 0 {
				count += rec(fid)
			}
		}
		return count
	}
	return rec(root)
}

// instantiate counts the gates a structure over the cut's leaves would
// add to the graph; ok is false when it resolves a gate to root or reads
// an input the cut does not have.
func (s *refScratch) instantiate(a *aig.AIG, st *rewlib.Structure, inv npn.Transform, leaves []int32, root int32) (nNew int, ok bool) {
	if cap(s.vals) < len(st.Nodes) {
		s.vals = make([]aig.Lit, len(st.Nodes)*2+8)
		s.virt = make([]bool, len(st.Nodes)*2+8)
	}
	vals := s.vals[:len(st.Nodes)]
	virt := s.virt[:len(st.Nodes)]
	get := func(l rewlib.SLit) (lit aig.Lit, virtual bool, ok bool) {
		compl := l&1 == 1
		base := l &^ 1
		if _, isConst := base.IsConst(); isConst {
			return aig.LitFalse.XorCompl(compl), false, true
		}
		if v, isIn := base.IsInput(); isIn {
			li := int(inv.Perm[v])
			if li >= len(leaves) {
				return 0, false, false
			}
			phase := inv.Flip>>uint(v)&1 == 1
			return aig.MakeLit(leaves[li], phase != compl), false, true
		}
		k := base.AndIndex()
		return vals[k].XorCompl(compl), virt[k], true
	}
	for k, g := range st.Nodes {
		l0, v0, ok0 := get(g.In0)
		l1, v1, ok1 := get(g.In1)
		if !ok0 || !ok1 {
			return 0, false
		}
		if v0 || v1 {
			virt[k] = true
			nNew++
			continue
		}
		if lit, simp := aig.SimplifyAnd(l0, l1); simp {
			if lit.Node() == root {
				return 0, false
			}
			vals[k], virt[k] = lit, false
			continue
		}
		if lit, found := a.Lookup(l0, l1); found {
			if lit.Node() == root {
				return 0, false
			}
			vals[k], virt[k] = lit, false
			continue
		}
		virt[k] = true
		nNew++
	}
	lit, outVirt, okOut := get(st.Out)
	if !okOut {
		return 0, false
	}
	if !outVirt && lit.Node() == root {
		return 0, false
	}
	return nNew, true
}

// refEvaluate is the old Evaluate on e's graph, library and configuration.
func refEvaluate(e *Evaluator, s *refScratch, root int32, cuts []cut.Cut) Candidate {
	best := Candidate{Root: root, RootVer: e.A.N(root).Version(), Kind: CandNone}
	minGain := 1
	if e.Cfg.ZeroGain {
		minGain = 0
	}
	a := e.A
	for ci := range cuts {
		c := &cuts[ci]
		if c.Size < 2 || !c.Fresh(a) {
			continue
		}
		saved := s.coneSavings(a, root, c)
		if saved < minGain {
			continue
		}
		if c.TT == tt.False64 || c.TT == tt.True64 {
			if best.Kind == CandNone || saved > best.Gain {
				best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandConst, Cut: *c, ConstVal: c.TT == tt.True64, Gain: saved}
			}
			continue
		}
		if leaf, phase, isWire := wireFunc(c); isWire {
			if best.Kind == CandNone || saved > best.Gain {
				best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandWire, Cut: *c, WireLeaf: leaf, WirePhase: phase, Gain: saved}
			}
			continue
		}
		if c.Size < 3 {
			continue
		}
		var structs []rewlib.Structure
		var inv npn.Transform
		cls, repr := rewlib.BigClass, tt.Func64(0)
		if c.Size > 4 {
			var tr npn.Transform
			repr, tr = e.semiCache().Canon(c.TT)
			structs, inv = e.Lib.ForRepr(repr), tr.Inverse()
		} else {
			cls, structs, _ = e.Lib.ForFunc(c.TT.Narrow16())
			if !e.mask[cls] {
				continue
			}
			// Recomputed, where the kernel reads the stored inverse.
			inv = e.Lib.NPN().ToCanon(c.TT.Narrow16()).Inverse()
		}
		nStr := e.Cfg.maxStructs(len(structs))
		for si := 0; si < nStr; si++ {
			nNew, ok := s.instantiate(a, &structs[si], inv, c.LeafSlice(), root)
			if !ok {
				continue
			}
			gain := saved - nNew
			if gain < minGain {
				continue
			}
			if best.Kind == CandNone || gain > best.Gain {
				best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandStruct, Cut: *c, Class: cls, Struct: si, Repr: repr, Gain: gain}
			}
		}
	}
	return best
}
