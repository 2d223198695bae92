package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
	"dacpara/internal/tt"
)

// CandKind discriminates what a candidate replaces the cone with.
type CandKind uint8

// Candidate kinds: a library structure, a constant, or a direct wire to a
// leaf (the latter two arise when rewriting proves the cone redundant).
const (
	CandNone CandKind = iota
	CandStruct
	CandConst
	CandWire
)

// Candidate is the pre-replacement information the evaluation stage
// computes for one node — the payload of the paper's prepInfo container:
// the chosen cut, its NPN class, the chosen equivalent structure, and the
// estimated gain.
type Candidate struct {
	Root int32
	// RootVer is Root's incarnation version at evaluation time: the
	// replacement stage rejects the candidate if the node was deleted —
	// and its ID possibly reused — in the meantime.
	RootVer uint32
	Kind    CandKind
	Cut     cut.Cut
	Class   int
	Struct  int // index into the class forest (CandStruct)

	// Repr is the semi-canonical representative for large-cut candidates
	// (Class == rewlib.BigClass); commit revalidates the recomputed cone
	// function against it.
	Repr tt.Func64

	// ConstVal is the replacement value for CandConst; WireLeaf/WirePhase
	// identify the leaf literal for CandWire.
	ConstVal  bool
	WireLeaf  int32
	WirePhase bool

	// Gain is the estimated node saving on the AIG the evaluation ran
	// against; replacement re-validates it on the latest graph.
	Gain int
}

// Ok reports whether the candidate proposes a change.
func (c *Candidate) Ok() bool { return c.Kind != CandNone }

// Scratch holds per-worker evaluation state so the lock-free evaluation
// stage never shares mutable data between threads (the paper's
// thread-local copies of MFFC bookkeeping).
type Scratch struct {
	delta map[int32]int32
	cone  map[int32]tt.Func64
	vals  []aig.Lit
	virt  []bool
	lvls  []int32
}

// NewScratch allocates evaluation scratch state.
func NewScratch() *Scratch {
	return &Scratch{delta: make(map[int32]int32, 64)}
}

// coneSavings estimates how many AND nodes die if root's cut cone is
// replaced: a trial recursive dereference over a thread-local overlay of
// the shared reference counts (the counts themselves are only read, so the
// evaluation stage needs no locks). Logical sharing is respected: cone
// nodes referenced from outside survive and are not counted.
func (s *Scratch) coneSavings(a *aig.AIG, root int32, c *cut.Cut) int {
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

// instantiate resolves a structure over concrete cut leaves against the
// current graph: every structure gate either maps to an existing node
// (free, thanks to logical sharing) or is counted as a node to create.
//
// inv is the inverse NPN transform: structure input i is driven by leaf
// inv.Perm[i], complemented per inv.Flip, and the output is complemented
// per inv.Neg.
//
// When lock is non-nil it is invoked on every existing node the structure
// would reuse (and must succeed — a false return aborts with ok=false).
// When build is true the virtual gates are actually created (the caller
// must already hold all locks; tryLock filters reused IDs). When refs is
// non-nil, every reference a new gate would add to an existing node is
// appended to it — the seed for the replacement overlay simulation.
//
// outNew reports that the output gate is freshly created, in which case
// out is only meaningful in build mode.
//
// A structure that resolves any gate to root itself is rejected: reusing
// the node under replacement would cycle the graph (it is also the
// "nothing changes" case when it is the output).
func (s *Scratch) instantiate(a *aig.AIG, st *rewlib.Structure, inv npn.Transform6,
	leaves []int32, root int32, lock func(int32) bool, build bool,
	tryLock func(int32) bool, refs *[]aig.Lit) (out aig.Lit, outNew bool, nNew int, ok bool) {
	out, outNew, nNew, _, ok = s.instantiateLevels(a, st, inv, leaves, root, lock, build, tryLock, refs)
	return out, outNew, nNew, ok
}

// instantiateLevels is instantiate, additionally estimating the level
// (depth) the structure's output will have, for delay-preserving mode.
// Levels of existing nodes may be slightly stale after rewriting; the
// estimate is a heuristic bound, like ABC's update-level option.
func (s *Scratch) instantiateLevels(a *aig.AIG, st *rewlib.Structure, inv npn.Transform6,
	leaves []int32, root int32, lock func(int32) bool, build bool,
	tryLock func(int32) bool, refs *[]aig.Lit) (out aig.Lit, outNew bool, nNew int, outLevel int32, ok bool) {

	if cap(s.vals) < len(st.Nodes) {
		s.vals = make([]aig.Lit, len(st.Nodes)*2+8)
		s.virt = make([]bool, len(st.Nodes)*2+8)
		s.lvls = make([]int32, len(st.Nodes)*2+8)
	}
	vals := s.vals[:len(st.Nodes)]
	virt := s.virt[:len(st.Nodes)]
	lvls := s.lvls[:len(st.Nodes)]

	// get maps a structure literal to (graph literal, virtual?, level).
	get := func(l rewlib.SLit) (lit aig.Lit, virtual bool, level int32, ok bool) {
		compl := l&1 == 1
		base := l &^ 1
		if _, isConst := base.IsConst(); isConst {
			return aig.LitFalse.XorCompl(compl), false, 0, true
		}
		if v, isIn := base.IsInput(); isIn {
			li := int(inv.Perm[v])
			if li >= len(leaves) {
				return 0, false, 0, false
			}
			phase := inv.Flip>>uint(v)&1 == 1
			return aig.MakeLit(leaves[li], phase != compl), false, a.N(leaves[li]).Level(), true
		}
		k := base.AndIndex()
		return vals[k].XorCompl(compl), virt[k], lvls[k], true
	}

	addRef := func(l aig.Lit, virtual bool) {
		if refs != nil && !virtual && !l.IsConst() {
			*refs = append(*refs, l)
		}
	}
	for k, g := range st.Nodes {
		l0, v0, lv0, ok0 := get(g.In0)
		l1, v1, lv1, ok1 := get(g.In1)
		if !ok0 || !ok1 {
			return 0, false, 0, 0, false
		}
		newLevel := 1 + max32(lv0, lv1)
		if v0 || v1 {
			// A fanin is itself new: this gate must be new too.
			virt[k] = true
			lvls[k] = newLevel
			nNew++
			addRef(l0, v0)
			addRef(l1, v1)
			if build {
				vals[k] = a.AndWith(l0, l1, tryLock)
			}
			continue
		}
		if lit, simp := simplifiedAnd(a, l0, l1); simp {
			if lit.Node() == root {
				return 0, false, 0, 0, false
			}
			if lock != nil && !lit.IsConst() && !lock(lit.Node()) {
				return 0, false, 0, 0, false
			}
			vals[k], virt[k], lvls[k] = lit, false, a.N(lit.Node()).Level()
			continue
		}
		if lit, found := a.Lookup(l0, l1); found {
			if lit.Node() == root {
				return 0, false, 0, 0, false
			}
			if lock != nil && !lock(lit.Node()) {
				return 0, false, 0, 0, false
			}
			vals[k], virt[k], lvls[k] = lit, false, a.N(lit.Node()).Level()
			continue
		}
		virt[k] = true
		lvls[k] = newLevel
		nNew++
		addRef(l0, false)
		addRef(l1, false)
		if build {
			vals[k] = a.AndWith(l0, l1, tryLock)
		}
	}
	lit, outVirt, outLvl, okOut := get(st.Out)
	if !okOut {
		return 0, false, 0, 0, false
	}
	if inv.Neg {
		lit = lit.Not()
	}
	if !outVirt && lit.Node() == root {
		return 0, false, 0, 0, false
	}
	return lit, outVirt, nNew, outLvl, true
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// simplifiedAnd applies the trivial AND rules without touching the strash.
func simplifiedAnd(a *aig.AIG, f0, f1 aig.Lit) (aig.Lit, bool) {
	switch {
	case f0 == aig.LitFalse || f1 == aig.LitFalse:
		return aig.LitFalse, true
	case f0 == aig.LitTrue:
		return f1, true
	case f1 == aig.LitTrue:
		return f0, true
	case f0 == f1:
		return f0, true
	case f0 == f1.Not():
		return aig.LitFalse, true
	}
	return 0, false
}

// Evaluator runs the evaluation stage for one worker: it owns the scratch
// state and the configuration-derived restrictions.
type Evaluator struct {
	A       *aig.AIG
	Lib     *rewlib.Library
	Cfg     Config
	Scratch *Scratch

	// TrustStoredGain makes Execute commit candidates without re-checking
	// that the gain is still positive on the latest graph — the "static
	// global information" behaviour of the GPU baselines, which the
	// dac22/tcad23 engines model (replacements may realize zero or negative
	// gain).
	TrustStoredGain bool

	// CutPool is the worker slot's cut-storage pool, used by Execute's
	// commit-time re-enumeration. Nil degrades to plain allocation.
	CutPool *cut.Pool

	mask []bool
	semi *npn.SemiCache
}

// semiCache returns the evaluator's semi-canonicalization memo,
// allocating it on first use (only large-cut configurations ever need
// one).
func (e *Evaluator) semiCache() *npn.SemiCache {
	if e.semi == nil {
		e.semi = npn.NewSemiCache()
	}
	return e.semi
}

// NewEvaluator builds a per-worker evaluator.
func NewEvaluator(a *aig.AIG, lib *rewlib.Library, cfg Config) *Evaluator {
	return &Evaluator{A: a, Lib: lib, Cfg: cfg, Scratch: NewScratch(), mask: cfg.classMask(lib)}
}

// Evaluate computes the best replacement candidate for node root from its
// stored cut set. It performs no graph mutation and takes no locks: this
// is the paper's completely lock-free evaluation operator (safe because
// the evaluation stage never runs concurrently with graph mutation).
func (e *Evaluator) Evaluate(root int32, cuts []cut.Cut) Candidate {
	cand, _ := e.EvaluateLocked(root, cuts, nil)
	return cand
}

// EvaluateLocked is Evaluate for fused-operator engines (ICCAD'18): lock
// is invoked on every existing node whose fanout list the evaluation
// scans, so the evaluation may run while other activities mutate the
// graph. conflict=true means a lock could not be taken and the activity
// must abort.
func (e *Evaluator) EvaluateLocked(root int32, cuts []cut.Cut, lock Locker) (_ Candidate, conflict bool) {
	best := Candidate{Root: root, RootVer: e.A.N(root).Version(), Kind: CandNone}
	minGain := 1
	if e.Cfg.ZeroGain {
		minGain = 0
	}
	conflicted := false
	var lockFn func(int32) bool
	if lock != nil {
		lockFn = func(id int32) bool {
			if !lock(id) {
				conflicted = true
				return false
			}
			return true
		}
	}
	a := e.A
	for ci := range cuts {
		c := &cuts[ci]
		// Structural rewriting needs 3- and 4-input cuts; the collapse
		// checks below (constant or single-leaf cones) also pay off on
		// 2-cuts.
		if c.Size < 2 || !c.Fresh(a) {
			continue
		}
		saved := e.Scratch.coneSavings(a, root, c)
		if saved < minGain {
			continue // even deleting everything cannot reach the bar
		}
		// Collapsing cases: the cut function is constant or a single leaf.
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
		if c.Size > 4 {
			if e.evaluateBig(root, c, saved, minGain, &best, lockFn) {
				return best, true
			}
			continue
		}
		// A cut of Size <= 4 never depends on the upper variables, so the
		// narrow table is exact and the classic 4-input library applies.
		cls, structs, inv4 := e.Lib.ForFunc(c.TT.Narrow16())
		if !e.mask[cls] {
			continue
		}
		inv := inv4.Wide6()
		nStr := e.Cfg.maxStructs(len(structs))
		for si := 0; si < nStr; si++ {
			_, _, nNew, ok := e.Scratch.instantiate(a, &structs[si], inv, c.LeafSlice(), root, lockFn, false, nil, nil)
			if conflicted {
				return best, true
			}
			if !ok {
				continue
			}
			gain := saved - nNew
			if gain < minGain {
				continue
			}
			if best.Kind == CandNone || gain > best.Gain {
				best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandStruct, Cut: *c, Class: cls, Struct: si, Gain: gain}
			}
		}
	}
	return best, false
}

// wireFunc reports whether the cut function equals a single leaf variable
// (possibly complemented), returning that leaf.
func wireFunc(c *cut.Cut) (leaf int32, phase bool, ok bool) {
	for v := 0; v < int(c.Size); v++ {
		if c.TT == tt.Var64(v) {
			return c.Leaves[v], false, true
		}
		if c.TT == tt.Var64(v).Not() {
			return c.Leaves[v], true, true
		}
	}
	return 0, false, false
}
