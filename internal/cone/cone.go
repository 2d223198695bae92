// Package cone holds what every large-cone pass does to one node before
// it decides anything: grow a reconvergence-driven cut, simulate the cone
// above it into wide truth tables, and count the nodes that would die
// with the root. Refactoring, resubstitution and the LUT mapper's
// functional check share it.
package cone

import (
	"slices"

	"dacpara/internal/aig"
	"dacpara/internal/bigtt"
)

// Window is one worker's scratch for those three steps. It only reads
// the graph, keeps its per-node state in epoch-stamped marks and its
// tables in one slab, and so allocates nothing once warm. A Window serves
// one goroutine; what a method returns is a view into the window, valid
// until the same method runs again, and must be copied to outlive that.
type Window struct {
	a     *aig.AIG
	marks []mark
	epoch uint32

	leaves []int32

	// Tables live in slab, nw words each: the nvars leaf variables first,
	// then the cone's nodes in the order simulation finished them.
	nvars, nw int
	slab      []uint64
	cone      []int32
	limit     int

	simEpoch, cutEpoch, refEpoch uint32
	mffcRoot                     int32
}

// mark is a node's state in the current cut growth, simulation and
// dereference; a field group counts only while its stamp is current.
type mark struct {
	cut   uint32
	sim   uint32
	slot  int32
	ref   uint32
	delta int32
}

// New returns a window onto a.
func New(a *aig.AIG) *Window { return &Window{a: a} }

// begin opens a new epoch over marks that cover every node of the graph.
// When the counter wraps, the marks are wiped, which forgets the last
// simulation: TableOf then reports its nodes as unknown.
func (w *Window) begin() uint32 {
	if n := int(w.a.Capacity()); n > len(w.marks) {
		w.marks = slices.Grow(w.marks, n-len(w.marks))[:n]
	}
	w.epoch++
	if w.epoch == 0 {
		clear(w.marks)
		w.epoch = 1
	}
	return w.epoch
}

// Cut grows a reconvergence-driven cut of root: starting from its
// fanins, it repeatedly expands the leaf whose expansion adds the fewest
// new leaves (preferring free, reconvergent expansions) while no more
// than maxLeaves result.
func (w *Window) Cut(root int32, maxLeaves int) ([]int32, bool) {
	a := w.a
	w.cutEpoch = w.begin()
	w.leaves = w.leaves[:0]
	w.expand(a.N(root))
	for {
		best, bestCost := -1, 3
		for i, leaf := range w.leaves {
			ln := a.N(leaf)
			if !ln.IsAnd() {
				continue
			}
			cost := 0
			for _, f := range [2]aig.Lit{ln.Fanin0(), ln.Fanin1()} {
				if w.marks[f.Node()].cut != w.cutEpoch {
					cost++
				}
			}
			// Expanding replaces one leaf by cost new ones.
			if len(w.leaves)-1+cost <= maxLeaves && cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			break
		}
		leaf := w.leaves[best]
		w.leaves[best] = w.leaves[len(w.leaves)-1]
		w.leaves = w.leaves[:len(w.leaves)-1]
		w.expand(a.N(leaf))
	}
	return w.leaves, len(w.leaves) <= maxLeaves
}

// expand adds n's fanins to the cut unless it has met them before.
func (w *Window) expand(n aig.Node) {
	for _, f := range [2]aig.Lit{n.Fanin0(), n.Fanin1()} {
		if m := &w.marks[f.Node()]; m.cut != w.cutEpoch {
			m.cut = w.cutEpoch
			w.leaves = append(w.leaves, f.Node())
		}
	}
}

// Simulate computes the table of every node between the leaves and root
// over the leaves as variables, and returns root's. It fails when the
// cone reaches a non-AND node that is no leaf, or when a node is entered
// after more than limit were finished.
func (w *Window) Simulate(root int32, leaves []int32, limit int) (bigtt.TT, bool) {
	w.simEpoch = w.begin()
	if nv := len(leaves); nv != w.nvars {
		w.nvars, w.nw = nv, bigtt.NumWords(nv)
		for i := 0; i < nv; i++ {
			w.Table(i).SetVar(i)
		}
	}
	for i, l := range leaves {
		m := &w.marks[l]
		m.sim, m.slot = w.simEpoch, int32(i)
	}
	w.cone, w.limit = w.cone[:0], limit
	slot, ok := w.simulate(root)
	if !ok {
		return bigtt.TT{}, false
	}
	return w.Table(int(slot)), true
}

func (w *Window) simulate(id int32) (int32, bool) {
	m := &w.marks[id]
	if m.sim == w.simEpoch {
		return m.slot, true
	}
	n := w.a.N(id)
	if len(w.cone) > w.limit || !n.IsAnd() {
		return 0, false
	}
	f0, f1 := n.Fanin0(), n.Fanin1()
	s0, ok := w.simulate(f0.Node())
	if !ok {
		return 0, false
	}
	s1, ok := w.simulate(f1.Node())
	if !ok {
		return 0, false
	}
	m.sim, m.slot = w.simEpoch, int32(w.nvars+len(w.cone))
	w.cone = append(w.cone, id)
	// Table grows the slab: take the result's first, the operands' after.
	t := w.Table(int(m.slot))
	t.SetAnd(w.Table(int(s0)), f0.Compl(), w.Table(int(s1)), f1.Compl())
	return m.slot, true
}

// Cone returns the inner nodes of the last simulated cone, each after its
// fanins, root last.
func (w *Window) Cone() []int32 { return w.cone }

// Table returns the i-th table of the last simulation: those of the
// leaves in cut order, then those of Cone's nodes.
func (w *Window) Table(i int) bigtt.TT {
	end := (i + 1) * w.nw
	if end > len(w.slab) {
		w.slab = slices.Grow(w.slab, end-len(w.slab))
		w.slab = w.slab[:cap(w.slab)]
	}
	return bigtt.Make(w.nvars, w.slab[end-w.nw:end])
}

// TableOf returns the table the last simulation gave node id, if any.
func (w *Window) TableOf(id int32) (bigtt.TT, bool) {
	if m := w.marks[id]; m.sim == w.simEpoch {
		return w.Table(int(m.slot)), true
	}
	return bigtt.TT{}, false
}

// MFFC counts the nodes that die with root: root, and every AND below it
// whose references all come from nodes that die, not descending into
// leaves (nil: unbounded). It dereferences on an overlay, so the graph is
// only read.
func (w *Window) MFFC(root int32, leaves []int32) int {
	w.refEpoch, w.mffcRoot = w.begin(), root
	return w.deref(root, leaves)
}

func (w *Window) deref(id int32, leaves []int32) int {
	count := 1
	n := w.a.N(id)
	for _, f := range [2]aig.Lit{n.Fanin0(), n.Fanin1()} {
		fn := w.a.N(f.Node())
		if !fn.IsAnd() || slices.Contains(leaves, f.Node()) {
			continue
		}
		m := &w.marks[f.Node()]
		if m.ref != w.refEpoch {
			m.ref, m.delta = w.refEpoch, 0
		}
		m.delta--
		if fn.Ref()+m.delta == 0 {
			count += w.deref(f.Node(), leaves)
		}
	}
	return count
}

// InMFFC reports whether the last MFFC counted id.
func (w *Window) InMFFC(id int32) bool {
	m := w.marks[id]
	return id == w.mffcRoot || m.ref == w.refEpoch && w.a.N(id).Ref()+m.delta == 0
}
