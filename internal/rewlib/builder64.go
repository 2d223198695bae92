package rewlib

import (
	"fmt"
	"sort"

	"dacpara/internal/bigtt"
	"dacpara/internal/tt"
)

// builder64 constructs one Structure over Func64 tables of nv variables
// with builder-local structural hashing and function memoization, so
// repeated subfunctions share gates. It serves every width: the classic
// 4-input library is the nv = 4 case.
type builder64 struct {
	nodes  []SNode
	strash map[uint32]SLit
	memo   map[tt.Func64]SLit
	nv     int
}

func newBuilder64(nv int) *builder64 {
	return &builder64{strash: map[uint32]SLit{}, memo: map[tt.Func64]SLit{}, nv: nv}
}

// reset empties the builder for the next structure. The maps keep their
// storage: a forest is some fifty structures, and allocating two maps for
// each was most of what building the library allocated.
func (b *builder64) reset() {
	b.nodes = b.nodes[:0]
	clear(b.strash)
	clear(b.memo)
	b.memo[tt.False64] = SConstFalse
	for v := 0; v < b.nv; v++ {
		b.memo[tt.Var64(v)] = SInput(v)
	}
}

func (b *builder64) lookupMemo(f tt.Func64) (SLit, bool) {
	if l, ok := b.memo[f]; ok {
		return l, true
	}
	if l, ok := b.memo[f.Not()]; ok {
		return l.not(), true
	}
	return 0, false
}

func (b *builder64) and(l0, l1 SLit) SLit {
	switch {
	case l0 == SConstFalse || l1 == SConstFalse:
		return SConstFalse
	case l0 == SConstTrue:
		return l1
	case l1 == SConstTrue:
		return l0
	case l0 == l1:
		return l0
	case l0 == l1.not():
		return SConstFalse
	}
	if l0 > l1 {
		l0, l1 = l1, l0
	}
	key := uint32(l0)<<16 | uint32(l1)
	if l, ok := b.strash[key]; ok {
		return l
	}
	b.nodes = append(b.nodes, SNode{In0: l0, In1: l1})
	l := sAnd(len(b.nodes) - 1)
	b.strash[key] = l
	return l
}

func (b *builder64) or(l0, l1 SLit) SLit { return b.and(l0.not(), l1.not()).not() }
func (b *builder64) xor(l0, l1 SLit) SLit {
	return b.or(b.and(l0, l1.not()), b.and(l0.not(), l1))
}
func (b *builder64) mux(s, t, e SLit) SLit {
	return b.or(b.and(s, t), b.and(s.not(), e))
}

// finish packages the builder state into a Structure rooted at out,
// garbage-collecting unreachable gates.
func (b *builder64) finish(out SLit) Structure {
	used := make([]bool, len(b.nodes))
	var mark func(SLit)
	mark = func(l SLit) {
		k := l.AndIndex()
		if k < 0 || used[k] {
			return
		}
		used[k] = true
		mark(b.nodes[k].In0)
		mark(b.nodes[k].In1)
	}
	mark(out)
	remap := make([]SLit, len(b.nodes))
	var packed []SNode
	fix := func(l SLit) SLit {
		if k := l.AndIndex(); k >= 0 {
			return remap[k].Compl(l.compl())
		}
		return l
	}
	for k, n := range b.nodes {
		if !used[k] {
			continue
		}
		packed = append(packed, SNode{In0: fix(n.In0), In1: fix(n.In1)})
		remap[k] = sAnd(len(packed) - 1)
	}
	return Structure{Nodes: packed, Out: fix(out)}
}

// policy64 selects one run of the decomposer: which variable is preferred
// for extraction, whether XOR extraction is attempted before MUX
// expansion, and whether the complement is built and inverted.
type policy64 struct {
	order    []int
	xorFirst bool
	complOut bool
}

// guard bounds one structure's gate count and the decomposer's recursion
// depth: 40 gates and depth 8 cover every 4-input function with room to
// spare; 5- and 6-input cones are legitimately bigger.
func (b *builder64) guard() (maxGates, maxDepth int) {
	if b.nv <= 4 {
		return 40, 8
	}
	return 64, 12
}

// synthesize64 builds one structure for f under the given policy. ok is
// false when recursion exceeded the guard.
func (b *builder64) synthesize64(f tt.Func64, p policy64) (Structure, bool) {
	b.reset()
	target := f
	if p.complOut {
		target = f.Not()
	}
	out, ok := b.synth(target, p, 0)
	if !ok {
		return Structure{}, false
	}
	if p.complOut {
		out = out.not()
	}
	return b.finish(out), true
}

// synth recursively decomposes f: single-literal AND/OR extraction, then
// XOR extraction, then Shannon/MUX expansion.
func (b *builder64) synth(f tt.Func64, p policy64, depth int) (SLit, bool) {
	if l, ok := b.lookupMemo(f); ok {
		return l, true
	}
	if maxGates, maxDepth := b.guard(); len(b.nodes) > maxGates || depth > maxDepth {
		return 0, false
	}
	rec := func(g tt.Func64) (SLit, bool) { return b.synth(g, p, depth+1) }

	for _, v := range p.order {
		if !f.DependsOn(v) {
			continue
		}
		c0, c1 := f.Cofactor0(v), f.Cofactor1(v)
		x := SInput(v)
		switch {
		case c0 == tt.False64: // f = x & c1
			g, ok := rec(c1)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.and(x, g)), true
		case c1 == tt.False64: // f = !x & c0
			g, ok := rec(c0)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.and(x.not(), g)), true
		case c0 == tt.True64: // f = !x | c1
			g, ok := rec(c1)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.or(x.not(), g)), true
		case c1 == tt.True64: // f = x | c0
			g, ok := rec(c0)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.or(x, g)), true
		}
	}
	if p.xorFirst {
		for _, v := range p.order {
			if g, ok := f.IsXorDecomposable(v); ok && f.DependsOn(v) {
				gl, ok := rec(g)
				if !ok {
					return 0, false
				}
				return b.memoize(f, b.xor(SInput(v), gl)), true
			}
		}
	}
	for _, v := range p.order {
		if !f.DependsOn(v) {
			continue
		}
		t, ok := rec(f.Cofactor1(v))
		if !ok {
			return 0, false
		}
		e, ok := rec(f.Cofactor0(v))
		if !ok {
			return 0, false
		}
		return b.memoize(f, b.mux(SInput(v), t, e)), true
	}
	// f is constant (True handled via memo of False complement).
	if f == tt.True64 {
		return SConstTrue, true
	}
	return SConstFalse, true
}

func (b *builder64) memoize(f tt.Func64, l SLit) SLit {
	b.memo[f] = l
	return l
}

// factorCover64 builds a structure by algebraically factoring an
// irredundant sum-of-products cover of f (or of its complement with the
// output inverted), the classic SOP-driven alternative to decomposition.
func (b *builder64) factorCover64(f tt.Func64, compl bool) Structure {
	b.reset()
	target := f
	if compl {
		target = f.Not()
	}
	// No don't-cares: the interval is the function itself.
	on := bigtt.Make(b.nv, []uint64{uint64(target) & bigtt.WordMask(b.nv)})
	cover, _ := new(bigtt.Scratch).Cover(on, on)
	return b.finish(b.factor(cover).Compl(compl))
}

// factor recursively divides a cover by its most frequent literal.
func (b *builder64) factor(cover []bigtt.Cube) SLit {
	if len(cover) == 0 {
		return SConstFalse
	}
	if len(cover) == 1 {
		return b.cubeAnd(cover[0])
	}
	var count [MaxInputs][2]int
	for _, c := range cover {
		for v := 0; v < MaxInputs; v++ {
			if c.Lits>>uint(v)&1 == 1 {
				count[v][c.Phase>>uint(v)&1]++
			}
		}
	}
	bestV, bestP, bestN := -1, 0, 1
	for v := 0; v < MaxInputs; v++ {
		for p := 0; p < 2; p++ {
			if count[v][p] > bestN {
				bestV, bestP, bestN = v, p, count[v][p]
			}
		}
	}
	if bestV < 0 {
		// No shared literal: balanced OR of cube ANDs.
		mid := len(cover) / 2
		return b.or(b.factor(cover[:mid]), b.factor(cover[mid:]))
	}
	var quotient, remainder []bigtt.Cube
	for _, c := range cover {
		if c.Lits>>uint(bestV)&1 == 1 && int(c.Phase>>uint(bestV)&1) == bestP {
			q := c
			q.Lits &^= 1 << uint(bestV)
			q.Phase &^= 1 << uint(bestV)
			quotient = append(quotient, q)
		} else {
			remainder = append(remainder, c)
		}
	}
	lit := SInput(bestV).Compl(bestP == 0)
	qf := b.and(lit, b.factor(quotient))
	if len(remainder) == 0 {
		return qf
	}
	return b.or(qf, b.factor(remainder))
}

// cubeAnd builds the conjunction of a cube's literals.
func (b *builder64) cubeAnd(c bigtt.Cube) SLit {
	out := SConstTrue
	for v := 0; v < MaxInputs; v++ {
		if c.Lits>>uint(v)&1 == 0 {
			continue
		}
		out = b.and(out, SInput(v).Compl(c.Phase>>uint(v)&1 == 0))
	}
	return out
}

// classicOrders are the twelve variable preference orders of the 4-input
// library. They are data, not the nv = 4 case of the rotation scheme
// below: that scheme yields a different set at four variables, and the
// set decides which structures the library holds — hence every engine's
// result at k = 4.
var classicOrders = [][]int{
	{0, 1, 2, 3}, {1, 2, 3, 0}, {2, 3, 0, 1}, {3, 0, 1, 2},
	{0, 2, 1, 3}, {1, 3, 2, 0}, {3, 1, 0, 2}, {2, 0, 3, 1},
	{0, 3, 2, 1}, {3, 2, 1, 0}, {1, 0, 3, 2}, {2, 1, 0, 3},
}

// varOrders64 returns the deterministic set of variable preference orders
// the policies explore over nv variables. Above four variables these are
// the rotations of four base interleavings: full permutation enumeration
// (720 orders at nv=6) buys little over this spread and costs 30x the
// synthesis time.
func varOrders64(nv int) [][]int {
	if nv == 4 {
		return classicOrders
	}
	bases := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{0, 2, 4, 1, 3, 5},
		{1, 4, 0, 3, 5, 2},
	}
	seen := map[string]bool{}
	var out [][]int
	for _, base := range bases {
		var proj []int
		for _, v := range base {
			if v < nv {
				proj = append(proj, v)
			}
		}
		for r := 0; r < nv; r++ {
			ord := make([]int, nv)
			for i := range ord {
				ord[i] = proj[(i+r)%nv]
			}
			k := ""
			for _, v := range ord {
				k += string(rune('0' + v))
			}
			if !seen[k] {
				seen[k] = true
				out = append(out, ord)
			}
		}
	}
	return out
}

// synthesizeAll64 runs every decomposition policy on f, a function of the
// first nv variables, and returns the deduplicated forest ranked by size.
// Every structure is verified against f exactly once, here: one that
// computes anything else is left out of the forest — it must never reach
// a netlist — and reported in err (which can only mean a builder bug).
func synthesizeAll64(f tt.Func64, nv, maxPerClass int) (all []Structure, err error) {
	b := newBuilder64(nv)
	seen := map[string]bool{}
	add := func(s Structure) {
		if got := s.Func64(); got != f {
			if err == nil {
				err = fmt.Errorf("a structure built for %v computes %v", f, got)
			}
			return
		}
		k := s.key()
		if !seen[k] {
			seen[k] = true
			all = append(all, s)
		}
	}
	for _, order := range varOrders64(nv) {
		for _, xorFirst := range [2]bool{true, false} {
			for _, complOut := range [2]bool{false, true} {
				if s, ok := b.synthesize64(f, policy64{order: order, xorFirst: xorFirst, complOut: complOut}); ok {
					add(s)
				}
			}
		}
	}
	add(b.factorCover64(f, false))
	add(b.factorCover64(f, true))
	sort.SliceStable(all, func(i, j int) bool { return len(all[i].Nodes) < len(all[j].Nodes) })
	if maxPerClass > 0 && len(all) > maxPerClass {
		all = all[:maxPerClass]
	}
	return all, err
}
