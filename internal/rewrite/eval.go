package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
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
// thread-local copies of MFFC bookkeeping). Its size follows the cut
// width, the largest structure and the largest cone it has met — never
// the graph.
type Scratch struct {
	ov overlay

	// vals maps a structure's node indices (SLit >> 1: 0 the constant,
	// 1..6 the inputs, gateBase+k gate k) to graph literals. bind fills
	// the inputs once per cut; plan fills the gates of one structure.
	vals []aig.Lit
	neg  bool // the bound transform complements the output
	// lvl is level's table over the same indices.
	lvl []int32

	// memo remembers what a gate over two existing literals resolves to,
	// from forget to forget: a direct-mapped cache, an entry counts while
	// its stamp is current.
	memo  [memoSize]gateMemo
	stamp uint32

	conflict bool // plan gave up because a lock was refused
	coneLeft int  // nodes coneTT may still enter

	// dead lists the nodes the last replacement rehearsal deleted.
	dead []int32
}

const (
	gateBase = 1 + rewlib.MaxInputs
	memoSize = 512

	// litNew stands for a gate the graph does not have yet and litNone
	// for a structure input the cut has no leaf for; both keep their
	// meaning under complement and sort above every real literal.
	litNew  = ^aig.Lit(1)
	litNone = ^aig.Lit(3)
)

type gateMemo struct {
	l0, l1 aig.Lit
	stamp  uint32
	lit    aig.Lit
}

// NewScratch allocates evaluation scratch state.
func NewScratch() *Scratch { return &Scratch{vals: make([]aig.Lit, gateBase+32)} }

// overlay is a worker's private notes on a few nodes of the shared graph:
// how far a trial dereference has lowered a node's reference count, the
// function of a node inside the cone being recomputed, what a rehearsed
// replacement has done to it. Nodes are found by open addressing on the
// ID and entries are stamped with an epoch, so a new overlay costs one
// increment and the table grows with the cones it has held.
type overlay struct {
	tab   []note
	epoch uint32
	used  int
}

type note struct {
	id            int32
	epoch         uint32
	delta         int32
	f             tt.Func64
	known         bool // f is set
	touched, dead bool // replaceSim's
}

// begin forgets every note.
func (o *overlay) begin() {
	if o.epoch++; o.epoch == 0 || o.tab == nil {
		o.tab, o.epoch = make([]note, max(len(o.tab), 64)), 1
	}
	o.used = 0
}

// at returns the note on id, blank if there was none. The pointer is
// good until the next call.
func (o *overlay) at(id int32) *note {
	if 2*o.used >= len(o.tab) {
		old := o.tab
		o.tab, o.used = make([]note, 2*len(old)), 0
		for i := range old {
			if old[i].epoch == o.epoch {
				*o.at(old[i].id) = old[i]
			}
		}
	}
	for i := uint32(id) * 0x9E3779B1 >> 7; ; i++ {
		n := &o.tab[i&uint32(len(o.tab)-1)]
		if n.epoch != o.epoch {
			*n = note{id: id, epoch: o.epoch}
			o.used++
			return n
		}
		if n.id == id {
			return n
		}
	}
}

// coneSavings estimates how many AND nodes die if root's cut cone is
// replaced: a trial recursive dereference over a thread-local overlay of
// the shared reference counts (the counts themselves are only read, so the
// evaluation stage needs no locks). Logical sharing is respected: cone
// nodes referenced from outside survive and are not counted.
func (s *Scratch) coneSavings(a *aig.AIG, root int32, c *cut.Cut) int {
	s.ov.begin()
	return s.deref(a, root, c)
}

func (s *Scratch) deref(a *aig.AIG, id int32, c *cut.Cut) int {
	count := 1
	n := a.N(id)
	for _, f := range [2]aig.Lit{n.Fanin0(), n.Fanin1()} {
		fid := f.Node()
		fn := a.N(fid)
		if !fn.IsAnd() || c.Contains(fid) {
			continue
		}
		// A node referenced once dies here and now; only a shared one
		// needs a note of how many references it has lost.
		refs := fn.Ref()
		dies := refs == 1
		if refs > 1 {
			e := s.ov.at(fid)
			e.delta--
			dies = refs+e.delta == 0
		}
		if dies {
			count += s.deref(a, fid, c)
		}
	}
	return count
}

// bind points the structure inputs at the cut's leaves through inv, the
// inverse NPN transform: input v is leaf inv.Perm[v], complemented per
// inv.Flip, and the output is complemented per inv.Neg.
func (s *Scratch) bind(inv npn.Transform, c *cut.Cut) {
	s.vals[0] = aig.LitFalse
	for v := 0; v < rewlib.MaxInputs; v++ {
		s.vals[1+v] = litNone
		if li := inv.Perm[v]; li < c.Size {
			s.vals[1+v] = aig.MakeLit(c.Leaves[li], inv.Flip>>uint(v)&1 == 1)
		}
	}
	s.neg = inv.Neg
}

// forget empties the gate memo; whoever plans structures calls it once
// the graph may have changed since the last plan.
func (s *Scratch) forget() {
	if s.stamp++; s.stamp == 0 {
		s.memo, s.stamp = [memoSize]gateMemo{}, 1
	}
}

// slot is the index in vals of the node a structure literal points at.
func slot(l rewlib.SLit) int { return int(l >> 1) }

// lit is the graph literal bound to a structure literal.
func (s *Scratch) lit(l rewlib.SLit) aig.Lit { return s.vals[slot(l)] ^ aig.Lit(l&1) }

// out is the literal a planned or built structure drives, and whether it
// is a gate still to create.
func (s *Scratch) out(st *rewlib.Structure) (aig.Lit, bool) {
	l := s.lit(st.Out)
	return l.XorCompl(s.neg), l >= litNew
}

// plan resolves a structure over the bound cut against the current graph:
// every gate either maps to an existing node (free, thanks to logical
// sharing) or is counted as a node to create, and the walk gives up as
// soon as it has counted more than budget. Afterwards lit gives each
// gate's literal (litNew for a gate to create) and out the output's.
//
// What a gate over two existing literals resolves to is looked up once
// and remembered until forget, across the structures of a cut and the
// cuts of a node. When lock is non-nil it is invoked on every existing
// node a gate resolves to, at the lookup: a refusal sets s.conflict and
// fails the walk.
//
// A structure that resolves any gate to root itself is rejected: reusing
// the node under replacement would cycle the graph (it is also the
// "nothing changes" case when it is the output).
func (s *Scratch) plan(a *aig.AIG, st *rewlib.Structure, root int32, budget int, lock engine.Locker) (nNew int, ok bool) {
	if n := gateBase + len(st.Nodes); n > len(s.vals) {
		s.vals = append(s.vals, make([]aig.Lit, n-len(s.vals))...)
	}
	for k, g := range st.Nodes {
		l0, l1 := s.lit(g.In0), s.lit(g.In1)
		lit := litNew // a gate over a new gate is new too
		if l0 < litNone && l1 < litNone {
			if l0 > l1 {
				l0, l1 = l1, l0
			}
			m := &s.memo[(uint64(l0)<<32|uint64(l1))*0x9E3779B97F4A7C15>>55]
			if m.stamp == s.stamp && m.l0 == l0 && m.l1 == l1 {
				lit = m.lit
			} else {
				if found, ok := a.Lookup(l0, l1); ok {
					if lit = found; lit.Node() == root {
						return 0, false
					}
					if lock != nil && !lit.IsConst() && !lock(lit.Node()) {
						s.conflict = true
						return 0, false
					}
				}
				*m = gateMemo{l0, l1, s.stamp, lit}
			}
		} else if l0&^1 == litNone || l1&^1 == litNone {
			return 0, false
		}
		if lit == litNew {
			if nNew++; nNew > budget {
				return 0, false
			}
		}
		s.vals[gateBase+k] = lit
	}
	if out := s.lit(st.Out); out&^1 == litNone || out < litNone && out.Node() == root {
		return 0, false
	}
	return nNew, true
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

	// CascadeMerge makes Execute also merge the fanouts a replacement
	// leaves structurally equal: a column of the engine table.
	CascadeMerge bool

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
//
// A candidate must reach bar: the configured minimum at first, then one
// more than the best gain so far (ties keep the earlier cut and
// structure). A cut whose whole cone saves less than bar is skipped, and
// a structure is walked only until it has needed more than saved-bar new
// gates — past that it could not have been chosen, so the budget changes
// which walks finish, never which candidate wins.
func (e *Evaluator) EvaluateLocked(root int32, cuts []cut.Cut, lock engine.Locker) (_ Candidate, conflict bool) {
	a, s := e.A, e.Scratch
	best := Candidate{Root: root, RootVer: a.N(root).Version()}
	bestCut := -1
	bar := 1
	if e.Cfg.ZeroGain {
		bar = 0
	}
	s.conflict = false
	s.forget()
	for ci := range cuts {
		c := &cuts[ci]
		// Structural rewriting needs 3- and 4-input cuts; the collapse
		// checks below (constant or single-leaf cones) also pay off on
		// 2-cuts.
		if c.Size < 2 || !c.Fresh(a) {
			continue
		}
		saved := s.coneSavings(a, root, c)
		if saved < bar {
			continue // even deleting everything cannot reach the bar
		}
		// Collapsing cases: the cut function is constant or a single leaf.
		if c.TT == tt.False64 || c.TT == tt.True64 {
			best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandConst, ConstVal: c.TT == tt.True64, Gain: saved}
			bestCut, bar = ci, saved+1
			continue
		}
		if leaf, phase, isWire := wireFunc(c); isWire {
			best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandWire, WireLeaf: leaf, WirePhase: phase, Gain: saved}
			bestCut, bar = ci, saved+1
			continue
		}
		if c.Size < 3 {
			continue
		}
		cls, repr, structs, inv := e.forest(c.Size, c.TT)
		if len(structs) == 0 {
			continue
		}
		s.bind(inv, c)
		// Once a structure has saved the whole cone, none can beat it.
		for si, n := 0, e.Cfg.maxStructs(len(structs)); si < n && saved >= bar; si++ {
			nNew, ok := s.plan(a, &structs[si], root, saved-bar, lock)
			if s.conflict {
				return Candidate{}, true
			}
			if ok {
				best = Candidate{Root: root, RootVer: best.RootVer, Kind: CandStruct, Class: cls, Struct: si, Repr: repr, Gain: saved - nNew}
				bestCut, bar = ci, best.Gain+1
			}
		}
	}
	if bestCut >= 0 {
		best.Cut = cuts[bestCut]
	}
	return best, false
}

// forest returns the library structures that implement f, the function of
// a cut of the given size, with the class they are filed under and the
// transform that maps their inputs and output back onto f's. A cut of
// Size <= 4 never depends on the upper variables, so the narrow table is
// exact and the dense 4-input library applies, its transform one table
// lookup (none for a class outside the configured subset); larger cuts
// are classified semi-canonically (npn.SemiCanon, memoized per worker)
// and their forests come from the library's lazily filled large-cut half.
func (e *Evaluator) forest(size uint8, f tt.Func64) (cls int, repr tt.Func64, structs []rewlib.Structure, inv npn.Transform) {
	if size > 4 {
		repr, tr := e.semiCache().Canon(f)
		return rewlib.BigClass, repr, e.Lib.ForRepr(repr), tr.Inverse()
	}
	cls, structs, inv = e.Lib.ForFunc(f.Narrow16())
	if !e.mask[cls] {
		structs = nil
	}
	return cls, 0, structs, inv
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
