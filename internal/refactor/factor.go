package refactor

import (
	"math/bits"
	"slices"

	"dacpara/internal/aig"
	"dacpara/internal/bigtt"
)

// expr is a factored-form node: a leaf literal or an AND/OR of two
// subtrees, which it names by their index in the pool the tree was built
// in. The factoring algorithm (most-frequent-literal division, the
// classic algebraic kernel extraction heuristic) produces the tree; the
// instantiator maps it onto the AIG with structural-hash reuse.
type expr struct {
	op    exprOp
	phase bool
	leaf  int32 // variable index for opLeaf
	l, rr int32
}

type exprOp uint8

const (
	opLeaf exprOp = iota
	opConst
	opAnd
	opOr
)

// plan is a candidate implementation: a factored tree, rooted at root in
// nodes, and an output complementation.
type plan struct {
	nodes []expr
	root  int32
	compl bool
}

// stored returns a copy of the plan that owns its nodes.
func (p plan) stored() plan {
	p.nodes = slices.Clone(p.nodes)
	return p
}

// gates counts the AND gates the tree at e costs before sharing (AND and
// OR both cost one AIG gate).
func gates(nodes []expr, e int32) int {
	switch n := &nodes[e]; n.op {
	case opAnd, opOr:
		return 1 + gates(nodes, n.l) + gates(nodes, n.rr)
	}
	return 0
}

func (r *refactorer) node(e expr) int32 {
	r.exprs = append(r.exprs, e)
	return int32(len(r.exprs) - 1)
}

// bestPlan factors both polarities of f and returns the cheaper plan,
// built in the refactorer's pool.
func (r *refactorer) bestPlan(f bigtt.TT) plan {
	r.exprs = r.exprs[:0]
	if f.IsConst0() || f.IsConst1() {
		root := r.node(expr{op: opConst, phase: f.IsConst1()})
		return plan{nodes: r.exprs, root: root}
	}
	r.neg = slices.Grow(r.neg[:0], len(f.Words()))[:len(f.Words())]
	fneg := bigtt.Make(f.NumVars(), r.neg)
	fneg.SetNot(f)
	// The cover of the first polarity is factored before the second
	// overwrites it in the scratch.
	cover, _ := r.isop.Cover(f, f)
	pos := r.factorCover(cover)
	cover, _ = r.isop.Cover(fneg, fneg)
	neg := r.factorCover(cover)
	if gates(r.exprs, neg) < gates(r.exprs, pos) {
		return plan{nodes: r.exprs, root: neg, compl: true}
	}
	return plan{nodes: r.exprs, root: pos}
}

// factorCover recursively divides the cover by its most frequent literal
// (of equally frequent ones the lowest variable's, negative phase first).
func (r *refactorer) factorCover(cover []bigtt.Cube) int32 {
	if len(cover) == 0 {
		return r.node(expr{op: opConst, phase: false})
	}
	if len(cover) == 1 {
		return r.cubeTree(cover[0])
	}
	var count [bigtt.MaxVars][2]int
	var used uint32
	for _, c := range cover {
		used |= c.Lits
		for m := c.Lits; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			count[v][c.Phase>>v&1]++
		}
	}
	bestV, bestP, bestN := -1, 0, 1
	for m := used; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		for p := 0; p < 2; p++ {
			if count[v][p] > bestN {
				bestV, bestP, bestN = v, p, count[v][p]
			}
		}
	}
	if bestV < 0 {
		// No shared literal: balanced OR of the cube trees.
		mid := len(cover) / 2
		l := r.factorCover(cover[:mid])
		return r.node(expr{op: opOr, l: l, rr: r.factorCover(cover[mid:])})
	}
	// Quotient and remainder, each in cover order, share one stack frame.
	mark := r.cubeTop
	frame := r.cubeFrame(len(cover))
	quotient, remainder := frame[:0:bestN], frame[bestN:bestN]
	bit := uint32(1) << bestV
	for _, c := range cover {
		if c.Lits&bit != 0 && int(c.Phase>>bestV&1) == bestP {
			c.Lits &^= bit
			c.Phase &^= bit
			quotient = append(quotient, c)
		} else {
			remainder = append(remainder, c)
		}
	}
	lit := r.node(expr{op: opLeaf, leaf: int32(bestV), phase: bestP == 0})
	out := r.node(expr{op: opAnd, l: lit, rr: r.factorCover(quotient)})
	if len(remainder) > 0 {
		out = r.node(expr{op: opOr, l: out, rr: r.factorCover(remainder)})
	}
	r.cubeTop = mark
	return out
}

// cubeFrame pushes n cubes on the factoring stack. Growing it leaves the
// frames already handed out where they are, in the array they came from.
func (r *refactorer) cubeFrame(n int) []bigtt.Cube {
	if r.cubeTop+n > len(r.cubes) {
		r.cubes = make([]bigtt.Cube, 2*(r.cubeTop+n))
	}
	r.cubeTop += n
	return r.cubes[r.cubeTop-n : r.cubeTop]
}

// cubeTree builds a balanced conjunction of a cube's literals.
func (r *refactorer) cubeTree(c bigtt.Cube) int32 {
	if c.Lits == 0 {
		return r.node(expr{op: opConst, phase: true})
	}
	var lits [bigtt.MaxVars]int32
	n := 0
	for m := c.Lits; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		lits[n] = r.node(expr{op: opLeaf, leaf: int32(v), phase: c.Phase>>v&1 == 0})
		n++
	}
	for n > 1 {
		next := 0
		for i := 0; i+1 < n; i += 2 {
			lits[next] = r.node(expr{op: opAnd, l: lits[i], rr: lits[i+1]})
			next++
		}
		if n%2 == 1 {
			lits[next] = lits[n-1]
			next++
		}
		n = next
	}
	return lits[0]
}

// instantiation is the state of one walk of instantiate.
type instantiation struct {
	plan   plan
	leaves []int32
	root   int32
	build  bool
	nNew   int
	bad    bool
}

// instantiate maps the plan onto the graph over the given leaves. In
// count mode (build=false) it resolves existing logic via structural
// hashing and counts the gates that would be created; in build mode it
// creates them. Resolving to the root itself is rejected (cycle/no-op
// guard, as in rewriting).
func (r *refactorer) instantiate(p plan, leaves []int32, root int32, build bool) (aig.Lit, int, bool) {
	r.inst = instantiation{plan: p, leaves: leaves, root: root, build: build}
	out, virtual := r.resolve(p.root)
	if r.inst.bad {
		return 0, 0, false
	}
	if p.compl {
		out = out.Not()
	}
	if !virtual && out.Node() == root {
		return 0, 0, false
	}
	return out, r.inst.nNew, true
}

// resolve maps the subtree at e; virtual reports a gate that count mode
// would have to create.
func (r *refactorer) resolve(at int32) (lit aig.Lit, virtual bool) {
	in := &r.inst
	e := in.plan.nodes[at]
	switch e.op {
	case opConst:
		return aig.LitFalse.XorCompl(e.phase), false
	case opLeaf:
		return aig.MakeLit(in.leaves[e.leaf], e.phase), false
	}
	l0, v0 := r.resolve(e.l)
	l1, v1 := r.resolve(e.rr)
	if in.bad {
		return 0, false
	}
	if e.op == opOr {
		l0, l1 = l0.Not(), l1.Not()
	}
	out, virtual := r.resolveAnd(l0, l1, v0 || v1)
	if out.Node() == in.root && !virtual {
		in.bad = true
	}
	if e.op == opOr {
		out = out.Not()
	}
	return out, virtual
}

// resolveAnd is one AND step of plan instantiation: an existing gate when
// both inputs exist and structural hashing knows their conjunction, a new
// one otherwise.
func (r *refactorer) resolveAnd(l0, l1 aig.Lit, forcedNew bool) (aig.Lit, bool) {
	if !forcedNew {
		if lit, ok := r.a.Lookup(l0, l1); ok {
			return lit, false
		}
	}
	r.inst.nNew++
	if r.inst.build {
		return r.a.And(l0, l1), true
	}
	return 0, true
}
