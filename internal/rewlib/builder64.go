package rewlib

import (
	"fmt"
	"math/bits"
	"slices"

	"dacpara/internal/bigtt"
	"dacpara/internal/tt"
)

// builder64 constructs structures over Func64 tables of nv variables with
// builder-local structural hashing and function memoization, so repeated
// subfunctions share gates. It serves every width: the classic 4-input
// library is the nv = 4 case. One builder synthesizes one forest at a
// time and is reused for the next; after the first few forests it
// allocates nothing but the forest it returns.
type builder64 struct {
	nv     int
	orders [][]int // varOrders64(nv)
	nodes  []SNode

	// The structure being built is stamp: an entry of strash or memo
	// from an earlier structure carries an older stamp and reads as
	// empty, so reset clears neither table. A builder lives for one
	// Build or one ForRepr miss, some ten thousand structures at most,
	// so the stamp never wraps.
	stamp  uint32
	strash table[uint32] // l0<<16 | l1 → the AND of l0 and l1
	memo   table[uint64] // phase-normalized function → literal computing it

	// finish's scratch; the structure it returns is a view of packed.
	used   []bool
	remap  []SLit
	packed []SNode

	isop  bigtt.Scratch
	word  [1]uint64    // the table factorCover64 hands the ISOP
	cubes []bigtt.Cube // factor's quotients and remainders, a stack

	// The distinct structures of the forest being synthesized, their
	// gates back to back in forest.
	forest []SNode
	kept   []span
}

// span is one structure of the forest under construction.
type span struct {
	lo, hi int
	out    SLit
}

func newBuilder64(nv int) *builder64 {
	b := &builder64{nv: nv, orders: varOrders64(nv)}
	// The decomposer gives a structure up once it passes maxGates gates,
	// and the memo holds at most one function per gate, input and
	// constant, so four slots a gate keep a probe short (the largest
	// structures built are 20 gates at four inputs, 54 at six). ISOP
	// factoring has no gate guard; the tables grow for it if they must.
	maxGates, _ := b.guard()
	size := 1
	for size < 4*maxGates {
		size *= 2
	}
	b.strash.init(size)
	b.memo.init(size)
	return b
}

// table is an open-addressing hash table from keys to literals with
// linear probing. A slot belongs to the structure whose stamp it
// carries.
type table[K uint32 | uint64] struct {
	slots []slot[K]
	shift uint // 64 − log2(len(slots))
	n     int  // live entries
}

type slot[K uint32 | uint64] struct {
	key   K
	stamp uint32
	lit   SLit
}

// init empties the table into size slots, a power of two. Slots start at
// stamp 0, which reset moves every builder past before its first use.
func (t *table[K]) init(size int) {
	t.slots = make([]slot[K], size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
}

// find returns key's slot under stamp, or the empty slot where it would
// go.
func (t *table[K]) find(key K, stamp uint32) *slot[K] {
	mask := len(t.slots) - 1
	for i := int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.stamp != stamp || s.key == key {
			return s
		}
	}
}

// put stores lit under key in its slot s (from find) and keeps the table
// at most half full.
func (t *table[K]) put(s *slot[K], key K, stamp uint32, lit SLit) {
	if s.stamp != stamp {
		t.n++
	}
	*s = slot[K]{key: key, stamp: stamp, lit: lit}
	if 2*t.n <= len(t.slots) {
		return
	}
	old := t.slots
	t.init(2 * len(old))
	for _, s := range old {
		if s.stamp == stamp {
			*t.find(s.key, stamp) = s
		}
	}
}

// reset empties the builder for the next structure.
func (b *builder64) reset() {
	b.nodes = b.nodes[:0]
	b.stamp++
	b.strash.n, b.memo.n = 0, 0
	b.memoize(tt.False64, SConstFalse)
	for v := 0; v < b.nv; v++ {
		b.memoize(tt.Var64(v), SInput(v))
	}
}

// memoKey folds f and its complement onto one key, the one whose row 0
// is false, and reports whether f was complemented to get there. A
// structure never memoizes both phases of a function — synth memoizes f
// only when neither phase was there, and below f it meets only functions
// that ignore a variable f depends on — so one probe answers for both.
func memoKey(f tt.Func64) (uint64, bool) {
	if f&1 == 1 {
		return uint64(f.Not()), true
	}
	return uint64(f), false
}

func (b *builder64) lookupMemo(f tt.Func64) (SLit, bool) {
	k, neg := memoKey(f)
	if s := b.memo.find(k, b.stamp); s.stamp == b.stamp {
		return s.lit.Compl(neg), true
	}
	return 0, false
}

func (b *builder64) memoize(f tt.Func64, l SLit) SLit {
	k, neg := memoKey(f)
	b.memo.put(b.memo.find(k, b.stamp), k, b.stamp, l.Compl(neg))
	return l
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
	s := b.strash.find(key, b.stamp)
	if s.stamp == b.stamp {
		return s.lit
	}
	b.nodes = append(b.nodes, SNode{In0: l0, In1: l1})
	l := sAnd(len(b.nodes) - 1)
	b.strash.put(s, key, b.stamp, l)
	return l
}

func (b *builder64) or(l0, l1 SLit) SLit { return b.and(l0.not(), l1.not()).not() }
func (b *builder64) xor(l0, l1 SLit) SLit {
	return b.or(b.and(l0, l1.not()), b.and(l0.not(), l1))
}
func (b *builder64) mux(s, t, e SLit) SLit {
	return b.or(b.and(s, t), b.and(s.not(), e))
}

// finish packs the gates reachable from out, in their order, into a
// Structure. The structure is a view of the builder's scratch, valid
// until the next finish.
func (b *builder64) finish(out SLit) Structure {
	n := len(b.nodes)
	if cap(b.used) < n {
		b.used, b.remap = make([]bool, n), make([]SLit, n)
	}
	used, remap := b.used[:n], b.remap[:n]
	clear(used)
	if k := out.AndIndex(); k >= 0 {
		used[k] = true
	}
	// Fanins precede their gate, so one sweep down marks the cone.
	for k := n - 1; k >= 0; k-- {
		if used[k] {
			for _, in := range [2]SLit{b.nodes[k].In0, b.nodes[k].In1} {
				if i := in.AndIndex(); i >= 0 {
					used[i] = true
				}
			}
		}
	}
	fix := func(l SLit) SLit {
		if k := l.AndIndex(); k >= 0 {
			return remap[k].Compl(l.compl())
		}
		return l
	}
	packed := b.packed[:0]
	for k, nd := range b.nodes {
		if !used[k] {
			continue
		}
		packed = append(packed, SNode{In0: fix(nd.In0), In1: fix(nd.In1)})
		remap[k] = sAnd(len(packed) - 1)
	}
	b.packed = packed
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
// false when recursion exceeded the guard. The structure is a view of
// the builder's scratch (finish).
func (b *builder64) synthesize64(f tt.Func64, p *policy64) (Structure, bool) {
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
func (b *builder64) synth(f tt.Func64, p *policy64, depth int) (SLit, bool) {
	if l, ok := b.lookupMemo(f); ok {
		return l, true
	}
	if maxGates, maxDepth := b.guard(); len(b.nodes) > maxGates || depth > maxDepth {
		return 0, false
	}
	depth++

	for _, v := range p.order {
		if !f.DependsOn(v) {
			continue
		}
		c0, c1 := f.Cofactor0(v), f.Cofactor1(v)
		x := SInput(v)
		switch {
		case c0 == tt.False64: // f = x & c1
			g, ok := b.synth(c1, p, depth)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.and(x, g)), true
		case c1 == tt.False64: // f = !x & c0
			g, ok := b.synth(c0, p, depth)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.and(x.not(), g)), true
		case c0 == tt.True64: // f = !x | c1
			g, ok := b.synth(c1, p, depth)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.or(x.not(), g)), true
		case c1 == tt.True64: // f = x | c0
			g, ok := b.synth(c0, p, depth)
			if !ok {
				return 0, false
			}
			return b.memoize(f, b.or(x, g)), true
		}
	}
	if p.xorFirst {
		for _, v := range p.order {
			if g, ok := f.IsXorDecomposable(v); ok && f.DependsOn(v) {
				gl, ok := b.synth(g, p, depth)
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
		t, ok := b.synth(f.Cofactor1(v), p, depth)
		if !ok {
			return 0, false
		}
		e, ok := b.synth(f.Cofactor0(v), p, depth)
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

// factorCover64 builds a structure by algebraically factoring an
// irredundant sum-of-products cover of f (or of its complement with the
// output inverted), the classic SOP-driven alternative to decomposition.
// The structure is a view of the builder's scratch (finish).
func (b *builder64) factorCover64(f tt.Func64, compl bool) Structure {
	b.reset()
	target := f
	if compl {
		target = f.Not()
	}
	// No don't-cares: the interval is the function itself.
	b.word[0] = uint64(target) & bigtt.WordMask(b.nv)
	on := bigtt.Make(b.nv, b.word[:])
	cover, _ := b.isop.Cover(on, on)
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
	// The quotient (the cubes with the literal, which they lose), then
	// the remainder, each in cover order, pushed on the cube stack; the
	// recursion pushes above them.
	has := func(c bigtt.Cube) bool {
		return c.Lits>>uint(bestV)&1 == 1 && int(c.Phase>>uint(bestV)&1) == bestP
	}
	top := len(b.cubes)
	for _, c := range cover {
		if has(c) {
			c.Lits &^= 1 << uint(bestV)
			c.Phase &^= 1 << uint(bestV)
			b.cubes = append(b.cubes, c)
		}
	}
	mid := len(b.cubes)
	for _, c := range cover {
		if !has(c) {
			b.cubes = append(b.cubes, c)
		}
	}
	quotient, remainder := b.cubes[top:mid], b.cubes[mid:]
	lit := SInput(bestV).Compl(bestP == 0)
	out := b.and(lit, b.factor(quotient))
	if len(remainder) > 0 {
		out = b.or(out, b.factor(remainder))
	}
	b.cubes = b.cubes[:top]
	return out
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
// builder's nv variables, and returns the deduplicated forest ranked by
// size. Every structure is verified against f exactly once, here: one
// that computes anything else is left out of the forest — it must never
// reach a netlist — and reported in err (which can only mean a builder
// bug). The forest's structures share one backing array, which nothing
// else references.
func (b *builder64) synthesizeAll64(f tt.Func64, maxPerClass int) (all []Structure, err error) {
	b.forest, b.kept = b.forest[:0], b.kept[:0]
	add := func(s Structure) {
		if e := b.keep(f, s); e != nil && err == nil {
			err = e
		}
	}
	for _, order := range b.orders {
		for _, xorFirst := range [2]bool{true, false} {
			for _, complOut := range [2]bool{false, true} {
				if s, ok := b.synthesize64(f, &policy64{order: order, xorFirst: xorFirst, complOut: complOut}); ok {
					add(s)
				}
			}
		}
	}
	add(b.factorCover64(f, false))
	add(b.factorCover64(f, true))

	kept := b.kept
	slices.SortStableFunc(kept, func(x, y span) int { return (x.hi - x.lo) - (y.hi - y.lo) })
	if maxPerClass > 0 && len(kept) > maxPerClass {
		kept = kept[:maxPerClass]
	}
	gates := 0
	for _, k := range kept {
		gates += k.hi - k.lo
	}
	nodes := make([]SNode, 0, gates)
	all = make([]Structure, len(kept))
	for i, k := range kept {
		lo := len(nodes)
		nodes = append(nodes, b.forest[k.lo:k.hi]...)
		all[i].Out = k.out
		if hi := len(nodes); hi > lo {
			all[i].Nodes = nodes[lo:hi:hi]
		}
	}
	return all, err
}

// keep verifies s against f and adds it to the forest under construction
// unless the forest already holds it.
func (b *builder64) keep(f tt.Func64, s Structure) error {
	if got := s.Func64(); got != f {
		return fmt.Errorf("a structure built for %v computes %v", f, got)
	}
	for _, k := range b.kept {
		if k.out == s.Out && slices.Equal(b.forest[k.lo:k.hi], s.Nodes) {
			return nil
		}
	}
	lo := len(b.forest)
	b.forest = append(b.forest, s.Nodes...)
	b.kept = append(b.kept, span{lo: lo, hi: len(b.forest), out: s.Out})
	return nil
}
