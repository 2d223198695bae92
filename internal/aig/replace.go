package aig

import "fmt"

// ReplaceOptions tune Replace behaviour.
type ReplaceOptions struct {
	// CascadeMerge re-hashes fanouts whose fanin pair, after patching,
	// duplicates an existing node, merging the two (ABC's behaviour).
	// A commit under locks disables it so that the set of mutated nodes
	// is known — and lockable — before any mutation happens; the
	// duplicate pairs left behind are functionally harmless and rare.
	CascadeMerge bool
}

// Replace redirects every reference to node old (AND fanins and primary
// outputs) to the literal repl, recursively deleting the logic cone that
// becomes unreferenced, and — with CascadeMerge — merging fanouts that
// become structurally identical to existing nodes. It returns the number
// of AND nodes deleted minus the number created (always >= 0; Replace
// never creates nodes).
//
// The caller must guarantee that repl's transitive fanin does not contain
// old (otherwise the graph would become cyclic) and, in parallel contexts,
// must hold exclusive locks on every node Replace will touch. With
// CascadeMerge the guarantee has to hold on the graph as earlier
// replacements left it: a cascade re-points nodes at ones created later,
// so neither node IDs nor a topological order taken beforehand say what
// lies in whose fanin. A caller that merges many equivalent nodes in one
// sweep cannot keep that cheaply; internal/cec, which once tried, builds
// the merged graph out of place instead and never calls Replace.
func (a *AIG) Replace(old int32, repl Lit, opts ReplaceOptions) int {
	deleted := 0
	fwd := map[int32]Lit{}
	type job struct {
		victim int32
		repl   Lit
	}
	work := []job{{old, repl}}

	resolve := func(l Lit) Lit {
		for {
			t, ok := fwd[l.Node()]
			if !ok {
				return l
			}
			l = t.XorCompl(l.Compl())
		}
	}

	for len(work) > 0 {
		j := work[len(work)-1]
		work = work[:len(work)-1]
		v := j.victim
		vn := a.node(v)
		if vn.Kind() != KindAnd {
			continue // already deleted by an earlier cascade
		}
		r := resolve(j.repl)
		if r.Node() == v {
			if r.Compl() {
				panic("aig: replacing node with its own complement")
			}
			continue
		}
		fwd[v] = r

		snap := append([]int32(nil), vn.Fanouts()...)
		for _, e := range snap {
			if k, isPO := IsPOFanout(e); isPO {
				po := a.pos[k]
				if po.Node() != v {
					continue // redirected by an earlier cascade step
				}
				newPO := r.XorCompl(po.Compl())
				a.pos[k] = newPO
				vn.removeFanout(e)
				rn := a.NodeOf(newPO)
				rn.refAdd(1)
				rn.addFanout(e)
				if vn.refAdd(-1) == 0 {
					deleted += a.deleteNodeCone(v)
				}
				continue
			}
			f := e
			fn := a.node(f)
			if fn.Kind() != KindAnd {
				continue
			}
			// Substitute v by r in f's fanins.
			f0, f1 := fn.Fanin0(), fn.Fanin1()
			if f0.Node() != v && f1.Node() != v {
				continue // already patched by an earlier cascade step
			}
			if f0.Node() == v {
				f0 = r.XorCompl(f0.Compl())
			}
			if f1.Node() == v {
				f1 = r.XorCompl(f1.Compl())
			}
			if res, ok := SimplifyAnd(f0, f1); ok {
				work = append(work, job{f, res})
				continue
			}
			f0, f1 = normalize(f0, f1)
			if opts.CascadeMerge {
				if g, ok := a.Lookup(f0, f1); ok && g.Node() != f {
					work = append(work, job{f, g})
					continue
				}
			}
			deleted += a.rehash(f, f0, f1)
		}
		if vn.Kind() == KindAnd && vn.Ref() == 0 {
			deleted += a.deleteNodeCone(v)
		}
	}
	return deleted
}

// rehash changes node f's fanins to the normalized pair (f0, f1), keeping
// reference counts and fanout lists consistent. It returns the number of
// AND nodes deleted because their last reference was f's old fanin edge.
func (a *AIG) rehash(f int32, f0, f1 Lit) int {
	fn := a.node(f)
	old0, old1 := fn.Fanin0(), fn.Fanin1()
	// Attach the new fanins before detaching the old ones so a fanin that
	// appears on both sides never transiently reaches ref 0.
	for _, nf := range [2]Lit{f0, f1} {
		n := a.NodeOf(nf)
		n.refAdd(1)
		n.addFanout(f)
	}
	fn.setFanins(f0, f1)
	fn.setLevel(1 + max32(a.NodeOf(f0).Level(), a.NodeOf(f1).Level()))
	deleted := 0
	for _, of := range [2]Lit{old0, old1} {
		n := a.NodeOf(of)
		if !n.removeFanout(f) {
			panic(fmt.Sprintf("aig: node %d missing fanout %d", of.Node(), f))
		}
		if n.refAdd(-1) == 0 && n.Kind() == KindAnd {
			deleted += a.deleteNodeCone(of.Node())
		}
	}
	a.levelsDirty.Store(true)
	return deleted
}

// DerefCone decrements the reference counts of root's transitive fanin as
// if root were deleted, stopping at leaves (isLeaf) and at nodes that stay
// referenced. It returns the number of AND nodes whose count reached zero,
// plus one for root itself: the size of root's MFFC restricted to the
// cone. RefCone undoes it. These trial operations mutate shared counts and
// are therefore only for serial use; the lock-free parallel evaluation
// stage uses overlay counting (see the rewrite package).
func (a *AIG) DerefCone(root int32, isLeaf func(int32) bool) int {
	n := a.node(root)
	count := 1
	for _, f := range [2]Lit{n.Fanin0(), n.Fanin1()} {
		fn := a.NodeOf(f)
		if fn.refAdd(-1) == 0 && fn.Kind() == KindAnd && !isLeaf(f.Node()) {
			count += a.DerefCone(f.Node(), isLeaf)
		}
	}
	return count
}

// RefCone is the inverse of DerefCone.
func (a *AIG) RefCone(root int32, isLeaf func(int32) bool) int {
	n := a.node(root)
	count := 1
	for _, f := range [2]Lit{n.Fanin0(), n.Fanin1()} {
		fn := a.NodeOf(f)
		if fn.refAdd(1) == 1 && fn.Kind() == KindAnd && !isLeaf(f.Node()) {
			count += a.RefCone(f.Node(), isLeaf)
		}
	}
	return count
}
