package aig

import "fmt"

// CheckOptions control which invariants Check verifies.
type CheckOptions struct {
	// AllowDuplicates skips the strash-uniqueness check: parallel engines
	// that disable cascade merging can leave duplicate fanin pairs.
	AllowDuplicates bool
}

// Check verifies the structural invariants of the graph and returns the
// first violation found. It is used pervasively by the test suite and is
// deliberately exhaustive rather than fast.
//
// Invariants:
//   - node 0 is the constant, PIs are PIs, no fanins on non-AND nodes
//   - AND fanins are normalized (fanin0 <= fanin1), live, and distinct
//   - every fanin edge appears in the fanin node's fanout list
//   - fanout lists contain no dangling entries and match ref counts
//   - PO literals point at live nodes and are mirrored in fanout lists
//   - the graph is acyclic
//   - at most one live AND per fanin pair (unless AllowDuplicates)
//   - NumAnds matches the live AND population
func (a *AIG) Check(opts CheckOptions) error {
	cap := a.Capacity()
	if cap == 0 || a.node(0).Kind() != KindConst {
		return fmt.Errorf("aig: node 0 is not the constant node")
	}
	live := func(id int32) bool {
		if id < 0 || id >= cap {
			return false
		}
		return a.node(id).Kind() != KindFree
	}
	// Expected refs from fanin edges and POs.
	refs := make([]int32, cap)
	pairs := make(map[uint64]int32)
	ands := 0
	for id := int32(0); id < cap; id++ {
		n := a.node(id)
		switch n.Kind() {
		case KindConst:
			if id != 0 {
				return fmt.Errorf("aig: constant node at ID %d", id)
			}
		case KindAnd:
			ands++
			f0, f1 := n.Fanin0(), n.Fanin1()
			if f0 > f1 {
				return fmt.Errorf("aig: node %d fanins not normalized (%v, %v)", id, f0, f1)
			}
			if f0.Node() == f1.Node() {
				return fmt.Errorf("aig: node %d has both fanins on node %d", id, f0.Node())
			}
			for _, f := range [2]Lit{f0, f1} {
				if !live(f.Node()) {
					return fmt.Errorf("aig: node %d has dead fanin %v", id, f)
				}
				refs[f.Node()]++
				found := false
				for _, e := range a.node(f.Node()).Fanouts() {
					if e == id {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("aig: node %d missing from fanout list of %d", id, f.Node())
				}
			}
			key := uint64(f0)<<32 | uint64(f1)
			if prev, dup := pairs[key]; dup && !opts.AllowDuplicates {
				return fmt.Errorf("aig: nodes %d and %d share fanin pair (%v, %v)", prev, id, f0, f1)
			}
			pairs[key] = id
		}
	}
	if ands != a.NumAnds() {
		return fmt.Errorf("aig: NumAnds=%d but %d live AND nodes", a.NumAnds(), ands)
	}
	for k, po := range a.pos {
		if !live(po.Node()) {
			return fmt.Errorf("aig: PO %d points at dead node %d", k, po.Node())
		}
		refs[po.Node()]++
		found := false
		for _, e := range a.node(po.Node()).Fanouts() {
			if e == POFanout(k) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("aig: PO %d missing from fanout list of node %d", k, po.Node())
		}
	}
	for id := int32(0); id < cap; id++ {
		n := a.node(id)
		if n.Kind() == KindFree {
			if n.FanoutCount() != 0 {
				return fmt.Errorf("aig: dead node %d has fanouts", id)
			}
			continue
		}
		if n.Ref() != refs[id] {
			return fmt.Errorf("aig: node %d ref=%d, expected %d", id, n.Ref(), refs[id])
		}
		if n.FanoutCount() != int(refs[id]) {
			return fmt.Errorf("aig: node %d fanout list length %d, expected %d", id, n.FanoutCount(), refs[id])
		}
		for _, e := range n.Fanouts() {
			if k, isPO := IsPOFanout(e); isPO {
				if k >= len(a.pos) || a.pos[k].Node() != id {
					return fmt.Errorf("aig: node %d fanout claims PO %d", id, k)
				}
				continue
			}
			if !live(e) || !a.node(e).IsAnd() {
				return fmt.Errorf("aig: node %d has dangling fanout %d", id, e)
			}
			g := a.node(e)
			if g.Fanin0().Node() != id && g.Fanin1().Node() != id {
				return fmt.Errorf("aig: node %d fanout %d does not read it", id, e)
			}
		}
	}
	// Acyclicity: DFS with colors.
	state := make([]uint8, cap)
	var cycle error
	var dfs func(int32) bool
	dfs = func(id int32) bool {
		n := a.node(id)
		if n.Kind() != KindAnd {
			return true
		}
		switch state[id] {
		case 1:
			cycle = fmt.Errorf("aig: cycle through node %d", id)
			return false
		case 2:
			return true
		}
		state[id] = 1
		if !dfs(n.Fanin0().Node()) || !dfs(n.Fanin1().Node()) {
			return false
		}
		state[id] = 2
		return true
	}
	for id := int32(0); id < cap; id++ {
		if a.node(id).IsAnd() && !dfs(id) {
			return cycle
		}
	}
	return nil
}
