// Package balance implements AND-tree balancing (ABC's `balance`): the
// delay-oriented companion pass to rewriting. Multi-input conjunctions
// that the AIG stores as skewed AND chains are re-associated into
// arrival-time-sorted balanced trees, minimizing depth without changing
// area beyond sharing effects.
//
// The paper applies rewriting inside synthesis flows that interleave
// area passes (rewrite) and delay passes (balance) — see the flow example
// and cmd/dacpara's -script option.
package balance

import (
	"context"
	"fmt"
	"sort"

	"dacpara/internal/aig"
	"dacpara/internal/engine"
)

// Run returns a balanced copy of the network. Balancing builds a fresh
// network, so cancellation (polled every engine.SerialCancelStride roots
// in the build pass) simply discards the partial copy and returns nil
// with the wrapped ctx error — the input is never modified either way.
func Run(ctx context.Context, a *aig.AIG) (*aig.AIG, error) {
	b := aig.New(aig.Options{CapacityHint: a.NumAnds() + a.NumPIs() + 1})
	b.Name = a.Name

	// Pass 1: find the conjunction-tree roots actually needed. A root is
	// a PO driver or a frontier leaf of another root's flattened tree;
	// single-fanout uncomplemented AND edges are absorbed into their
	// parent's conjunction and need no image of their own.
	needed := make([]bool, a.Capacity())
	var mark func(id int32)
	mark = func(id int32) {
		if !a.N(id).IsAnd() || needed[id] {
			return
		}
		needed[id] = true
		for _, l := range frontier(a, id) {
			mark(l.Node())
		}
	}
	for _, po := range a.POs() {
		mark(po.Node())
	}

	// Pass 2: build balanced trees bottom-up for the needed roots only.
	mp := make([]aig.Lit, a.Capacity())
	mp[0] = aig.LitFalse
	for _, pi := range a.PIs() {
		mp[pi] = b.AddPI()
	}
	for i, id := range a.TopoOrder(nil) {
		if i%engine.SerialCancelStride == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("balance: %w", ctx.Err())
		}
		if !a.N(id).IsAnd() || !needed[id] {
			continue
		}
		lits := frontier(a, id)
		imgs := make([]aig.Lit, len(lits))
		for i, l := range lits {
			imgs[i] = mp[l.Node()].XorCompl(l.Compl())
		}
		mp[id] = buildBalanced(b, imgs)
	}
	for _, po := range a.POs() {
		b.AddPO(mp[po.Node()].XorCompl(po.Compl()))
	}
	return b, nil
}

// frontier flattens the maximal absorbed AND tree rooted at id into its
// frontier literals (in the original graph). An edge stops the flattening
// when it is complemented (an inverter breaks the conjunction), reaches a
// non-AND node, or reaches shared logic (fanout > 1), which keeps its own
// image.
func frontier(a *aig.AIG, id int32) []aig.Lit {
	var leaves []aig.Lit
	var walk func(l aig.Lit, root bool)
	walk = func(l aig.Lit, root bool) {
		n := a.NodeOf(l)
		if !root {
			if l.Compl() || !n.IsAnd() || n.Ref() != 1 {
				leaves = append(leaves, l)
				return
			}
		}
		walk(n.Fanin0(), false)
		walk(n.Fanin1(), false)
	}
	walk(aig.MakeLit(id, false), true)
	return leaves
}

// buildBalanced combines the literals into a depth-minimal AND tree:
// repeatedly join the two lowest-level operands (Huffman-style).
func buildBalanced(b *aig.AIG, lits []aig.Lit) aig.Lit {
	if len(lits) == 0 {
		return aig.LitTrue
	}
	type entry struct {
		lit   aig.Lit
		level int32
	}
	es := make([]entry, len(lits))
	for i, l := range lits {
		es[i] = entry{l, b.NodeOf(l).Level()}
	}
	for len(es) > 1 {
		// Keep sorted descending by level; combine the two smallest.
		sort.Slice(es, func(i, j int) bool { return es[i].level > es[j].level })
		x := es[len(es)-1]
		y := es[len(es)-2]
		es = es[:len(es)-2]
		l := b.And(x.lit, y.lit)
		es = append(es, entry{l, b.NodeOf(l).Level()})
	}
	return es[0].lit
}
