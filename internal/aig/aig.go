package aig

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	pageBits = 13
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one struct-of-arrays block of the node store: every node field
// is a dense per-page array, so a sweep that reads one field (fanins
// during simulation, meta during levelize, versions during cut freshness
// checks) walks sequential cache lines instead of striding across full
// node records. A Node handle is a (page, index) pair into these arrays.
type page struct {
	fanins  [pageSize]atomic.Uint64 // fanin1<<32 | fanin0
	meta    [pageSize]atomic.Uint32 // kind (2 bits) | level (30 bits)
	ref     [pageSize]atomic.Int32
	version [pageSize]atomic.Uint32
	fanouts [pageSize][]int32 // AND fanout IDs; -(k+1) encodes PO index k
}

// AIG is an And-Inverter Graph. The zero value is not usable; call New.
type AIG struct {
	// pages is the append-only node store. The page-pointer slice is
	// replaced atomically on growth so readers never need a lock.
	pages atomic.Pointer[[]*page]
	// used is the high-water mark of allocated node slots.
	used atomic.Int64

	growMu sync.Mutex // guards page growth
	freeMu sync.Mutex // guards the free-ID list
	freeID []int32

	piMu sync.Mutex
	pis  []int32

	poMu sync.Mutex
	pos  []Lit

	numAnds     atomic.Int64
	levelsDirty atomic.Bool

	// clock is the last version handed out (see Node.Version).
	clock atomic.Uint64

	// Name is an optional design name carried through I/O.
	Name string
}

// Options configure a new AIG.
type Options struct {
	// CapacityHint pre-sizes the node store.
	CapacityHint int
}

// New creates an empty AIG containing only the constant node.
func New(opts ...Options) *AIG {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	a := &AIG{}
	pages := make([]*page, 0, 8)
	a.pages.Store(&pages)
	a.ensure(int64(o.CapacityHint) + 1)
	// Allocate the constant node at ID 0.
	id := a.alloc()
	if id != 0 {
		panic("aig: constant node must have ID 0")
	}
	a.node(0).setKind(KindConst)
	return a
}

// node returns the handle for id. Pages are append-only, so the handle
// stays valid forever.
func (a *AIG) node(id int32) Node {
	pages := *a.pages.Load()
	return Node{p: pages[id>>pageBits], i: id & pageMask}
}

// N returns the node with the given ID.
func (a *AIG) N(id int32) Node { return a.node(id) }

// NodeOf returns the node a literal points at.
func (a *AIG) NodeOf(l Lit) Node { return a.node(l.Node()) }

// ensure grows the page table to cover at least n slots.
func (a *AIG) ensure(n int64) {
	for {
		pages := *a.pages.Load()
		if int64(len(pages))*pageSize >= n {
			return
		}
		a.growMu.Lock()
		cur := *a.pages.Load()
		if int64(len(cur))*pageSize >= n {
			a.growMu.Unlock()
			continue
		}
		next := make([]*page, len(cur), len(cur)*2+2)
		copy(next, cur)
		for int64(len(next))*pageSize < n {
			next = append(next, new(page))
		}
		a.pages.Store(&next)
		a.growMu.Unlock()
	}
}

// alloc returns a fresh node ID (never reusing freed IDs; see allocReuse).
func (a *AIG) alloc() int32 {
	id := a.used.Add(1) - 1
	a.ensure(id + 1)
	return int32(id)
}

// allocReuse returns a node ID, preferring freed IDs. ID reuse matches the
// behaviour the paper describes in Fig. 3: deleted node IDs are recycled
// for new logic, which is why stored cuts must be re-validated.
//
// tryLock, when non-nil, must succeed on the returned ID: parallel engines
// pass their lock-acquisition callback so that no other activity — for
// example one still validating a stale cut that names the dead ID — can be
// touching the slot while it is re-initialized. Rejected IDs stay free.
func (a *AIG) allocReuse(tryLock func(int32) bool) int32 {
	a.freeMu.Lock()
	for i := len(a.freeID) - 1; i >= 0; i-- {
		id := a.freeID[i]
		if tryLock != nil && !tryLock(id) {
			continue
		}
		a.freeID[i] = a.freeID[len(a.freeID)-1]
		a.freeID = a.freeID[:len(a.freeID)-1]
		a.freeMu.Unlock()
		return id
	}
	a.freeMu.Unlock()
	for {
		id := a.alloc()
		// Fresh IDs have never been visible to any activity, so the lock
		// is normally free; if the filter still rejects one, keep the
		// slot on the free list for later reuse.
		if tryLock == nil || tryLock(id) {
			return id
		}
		a.release(id)
	}
}

// release returns a node ID to the free list.
func (a *AIG) release(id int32) {
	a.freeMu.Lock()
	a.freeID = append(a.freeID, id)
	a.freeMu.Unlock()
}

// Capacity returns the number of node slots ever allocated. Valid node IDs
// are always < Capacity.
func (a *AIG) Capacity() int32 { return int32(a.used.Load()) }

// NumPIs returns the number of primary inputs.
func (a *AIG) NumPIs() int { return len(a.pis) }

// NumPOs returns the number of primary outputs.
func (a *AIG) NumPOs() int { return len(a.pos) }

// NumAnds returns the number of live AND nodes; this is the "area" of the
// network in the paper's tables.
func (a *AIG) NumAnds() int { return int(a.numAnds.Load()) }

// PIs returns the primary input node IDs in creation order.
func (a *AIG) PIs() []int32 { return a.pis }

// PO returns the literal driving primary output k.
func (a *AIG) PO(k int) Lit { return a.pos[k] }

// POs returns the primary-output literals. The slice is live; do not
// mutate.
func (a *AIG) POs() []Lit { return a.pos }

// AddPI creates a new primary input and returns its literal.
func (a *AIG) AddPI() Lit {
	id := a.alloc()
	n := a.node(id)
	n.setKind(KindPI)
	n.setLevel(0)
	a.piMu.Lock()
	a.pis = append(a.pis, id)
	a.piMu.Unlock()
	return MakeLit(id, false)
}

// AddPO registers a primary output driven by l and returns its index.
func (a *AIG) AddPO(l Lit) int {
	a.poMu.Lock()
	k := len(a.pos)
	a.pos = append(a.pos, l)
	a.poMu.Unlock()
	n := a.NodeOf(l)
	n.refAdd(1)
	n.addFanout(POFanout(k))
	return k
}

// ReplacePO redirects primary output k to drive literal l, deleting logic
// that becomes unreferenced.
func (a *AIG) ReplacePO(k int, l Lit) {
	old := a.pos[k]
	if old == l {
		return
	}
	nn := a.NodeOf(l)
	nn.refAdd(1)
	nn.addFanout(POFanout(k))
	a.pos[k] = l
	on := a.NodeOf(old)
	on.removeFanout(POFanout(k))
	if on.refAdd(-1) == 0 && on.IsAnd() {
		a.deleteNodeCone(old.Node())
	}
}

// The clock hands out versions 1..maxVersion. moving, above all of them,
// is what a node holds while restamp draws its next one.
const (
	moving     = ^uint32(0)
	maxVersion = moving - 1
)

// restamp gives node n a new incarnation: the graph clock's next value.
// The node holds moving before the draw, so a reader that took its old
// version did so before the draw, and any stamp built from what it read
// is below the value the node ends up with. Without the sentinel a reader
// could take the old version and still meet a stamp drawn after the move.
func (a *AIG) restamp(n Node) {
	n.p.version[n.i].Store(moving)
	v := a.clock.Add(1)
	if v > uint64(maxVersion) {
		panic(fmt.Sprintf("aig: version clock passed its bound %d", maxVersion))
	}
	n.p.version[n.i].Store(uint32(v))
}

// normalize orders an AND fanin pair canonically (smaller literal first).
func normalize(f0, f1 Lit) (Lit, Lit) {
	if f0 > f1 {
		return f1, f0
	}
	return f0, f1
}

// SimplifyAnd applies the constant and sharing rules of AND construction.
// It returns (lit, true) when the conjunction simplifies to an existing
// literal without a new node.
func SimplifyAnd(f0, f1 Lit) (Lit, bool) {
	switch {
	case f0 == LitFalse || f1 == LitFalse:
		return LitFalse, true
	case f0 == LitTrue:
		return f1, true
	case f1 == LitTrue:
		return f0, true
	case f0 == f1:
		return f0, true
	case f0 == f1.Not():
		return LitFalse, true
	}
	return 0, false
}

// Lookup searches for an existing AND node with the given fanins, without
// creating one. It returns the node's literal if found. In parallel
// contexts the caller must hold the locks of both fanin nodes.
func (a *AIG) Lookup(f0, f1 Lit) (Lit, bool) { return a.lookupOther(f0, f1, -1) }

// lookupOther is Lookup that never returns node skip, Sweep's twin
// finder: folds reorder fanout lists, so a plain Lookup could answer
// each twin of a pair with itself and leave the pair unfolded.
func (a *AIG) lookupOther(f0, f1 Lit, skip int32) (Lit, bool) {
	if l, ok := SimplifyAnd(f0, f1); ok {
		return l, true
	}
	f0, f1 = normalize(f0, f1)
	// Scan the shorter fanout list, fanins first: nearly every entry
	// fails on its one fanin word, and only a match has its kind read.
	// One load of the page table serves the whole scan.
	pages := *a.pages.Load()
	p0, i0 := pages[f0.Node()>>pageBits], f0.Node()&pageMask
	p1, i1 := pages[f1.Node()>>pageBits], f1.Node()&pageMask
	host := p0.fanouts[i0]
	if len(p1.fanouts[i1]) < len(host) {
		host = p1.fanouts[i1]
	}
	pair := faninPair(f0, f1)
	for _, e := range host {
		if e < 0 {
			continue
		}
		g := Node{p: pages[e>>pageBits], i: e & pageMask}
		if g.p.fanins[g.i].Load() == pair && e != skip && g.Kind() == KindAnd {
			return MakeLit(e, false), true
		}
	}
	return 0, false
}

// And returns a literal computing the conjunction of f0 and f1, reusing an
// existing structurally identical node when possible (structural hashing).
// In parallel contexts the caller must hold the locks of both fanin nodes.
func (a *AIG) And(f0, f1 Lit) Lit {
	return a.AndWith(f0, f1, nil)
}

// AndWith is And with a lock filter for ID reuse; parallel engines pass
// their activity's lock-acquisition callback (see allocReuse).
func (a *AIG) AndWith(f0, f1 Lit, tryLock func(int32) bool) Lit {
	if l, ok := a.Lookup(f0, f1); ok {
		return l
	}
	f0, f1 = normalize(f0, f1)
	return a.newAnd(f0, f1, tryLock)
}

// newAnd unconditionally creates an AND node over the normalized pair.
func (a *AIG) newAnd(f0, f1 Lit, tryLock func(int32) bool) Lit {
	id := a.allocReuse(tryLock)
	n := a.node(id)
	n.setKind(KindAnd)
	a.restamp(n)
	n.setFanins(f0, f1)
	n.resetFanouts()
	n.refStore(0)
	n0, n1 := a.NodeOf(f0), a.NodeOf(f1)
	n.setLevel(1 + max(n0.Level(), n1.Level()))
	n0.refAdd(1)
	n0.addFanout(id)
	n1.refAdd(1)
	n1.addFanout(id)
	a.numAnds.Add(1)
	return MakeLit(id, false)
}

// Or returns the disjunction of f0 and f1.
func (a *AIG) Or(f0, f1 Lit) Lit { return a.And(f0.Not(), f1.Not()).Not() }

// Xor returns the exclusive-or of f0 and f1 built from three AND nodes.
func (a *AIG) Xor(f0, f1 Lit) Lit {
	return a.And(a.And(f0, f1.Not()).Not(), a.And(f0.Not(), f1).Not()).Not()
}

// Mux returns sel ? t : e.
func (a *AIG) Mux(sel, t, e Lit) Lit {
	return a.And(a.And(sel, t).Not(), a.And(sel.Not(), e).Not()).Not()
}

// deleteNodeCone marks node id dead and deletes the fanin cones whose
// reference count drops to zero. The caller must ensure ref(id)==0.
// Returns the number of AND nodes deleted; no live level moves. The walk
// is depth first on an explicit stack, so a dead chain of any length
// costs no call depth: each node is marked when reached, its fanin0 cone
// goes before its fanin1 cone, and its ID is released after both.
func (a *AIG) deleteNodeCone(id int32) int {
	if a.node(id).Kind() != KindAnd {
		return 0
	}
	// next is the fanin of id the walk visits next; at 2 both are done.
	type frame struct{ id, next int32 }
	var buf [32]frame
	stack := append(buf[:0], frame{id: id})
	a.killAnd(id)
	deleted := 1
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == 2 {
			a.release(top.id)
			stack = stack[:len(stack)-1]
			continue
		}
		f := a.node(top.id).Fanin0()
		if top.next == 1 {
			f = a.node(top.id).Fanin1()
		}
		top.next++
		fn := a.NodeOf(f)
		fn.removeFanout(top.id)
		if fn.refAdd(-1) == 0 && fn.Kind() == KindAnd {
			a.killAnd(f.Node())
			stack = append(stack, frame{id: f.Node()})
			deleted++
		}
	}
	return deleted
}

// killAnd marks the unreferenced AND id dead; its fanins stay readable
// until deleteNodeCone has walked them.
func (a *AIG) killAnd(id int32) {
	n := a.node(id)
	if n.Ref() != 0 {
		panic(fmt.Sprintf("aig: deleting node %d with ref %d", id, n.Ref()))
	}
	n.setKind(KindFree)
	a.restamp(n)
	n.resetFanouts()
	a.numAnds.Add(-1)
}

// Sweep makes the graph canonical in place and returns the number of
// ANDs it deleted. In one ID scan it deletes each AND nothing references,
// with the cone only it keeps, and replaces each AND whose fanin pair
// another node has (so one not in its fanout cone) by that node, with
// CascadeMerge: of two twins, the one scanned first goes. Freed IDs go
// to the free list; survivors keep their IDs, versions and, unless a
// fold re-points a fanout, levels.
func (a *AIG) Sweep() int {
	deleted := 0
	for id := range a.Capacity() {
		n := a.node(id)
		if !n.IsAnd() {
			continue
		}
		if n.Ref() == 0 {
			deleted += a.deleteNodeCone(id)
		} else if g, ok := a.lookupOther(n.Fanin0(), n.Fanin1(), id); ok {
			deleted += a.Replace(id, g, ReplaceOptions{CascadeMerge: true})
		}
	}
	return deleted
}

// Levelize recomputes all node levels bottom-up and returns the maximum PO
// level (the network delay). It is called automatically by Delay when
// levels are stale.
func (a *AIG) Levelize() int32 {
	order := a.TopoOrder(nil)
	for _, id := range order {
		n := a.node(id)
		if n.Kind() == KindAnd {
			n.setLevel(1 + max(a.NodeOf(n.Fanin0()).Level(), a.NodeOf(n.Fanin1()).Level()))
		} else {
			n.setLevel(0)
		}
	}
	a.levelsDirty.Store(false)
	var d int32
	for _, po := range a.pos {
		d = max(d, a.NodeOf(po).Level())
	}
	return d
}

// Delay returns the maximum level over all primary outputs.
func (a *AIG) Delay() int32 {
	if a.levelsDirty.Load() {
		return a.Levelize()
	}
	var d int32
	for _, po := range a.pos {
		d = max(d, a.NodeOf(po).Level())
	}
	return d
}

// TopoOrder returns every live node ID in topological order (fanins before
// fanouts), starting with the constant and the PIs. The result is appended
// to buf.
func (a *AIG) TopoOrder(buf []int32) []int32 {
	cap := a.Capacity()
	state := make([]uint8, cap) // 0 unvisited, 1 on stack, 2 done
	out := buf[:0]
	out = append(out, 0)
	state[0] = 2
	for _, pi := range a.pis {
		out = append(out, pi)
		state[pi] = 2
	}
	type frame struct {
		id    int32
		phase uint8
	}
	var stack []frame
	for id := int32(0); id < cap; id++ {
		if state[id] != 0 || !a.node(id).IsAnd() {
			continue
		}
		stack = append(stack[:0], frame{id, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			n := a.node(f.id)
			switch f.phase {
			case 0:
				f.phase = 1
				state[f.id] = 1
				if c := n.Fanin0().Node(); state[c] == 0 && a.node(c).IsAnd() {
					stack = append(stack, frame{c, 0})
				}
			case 1:
				f.phase = 2
				if c := n.Fanin1().Node(); state[c] == 0 && a.node(c).IsAnd() {
					stack = append(stack, frame{c, 0})
				}
			default:
				state[f.id] = 2
				out = append(out, f.id)
				stack = stack[:len(stack)-1]
			}
		}
	}
	return out
}

// ForEachAnd calls fn for every live AND node ID (in ID order, not
// topological order).
func (a *AIG) ForEachAnd(fn func(id int32)) {
	cap := a.Capacity()
	for id := int32(0); id < cap; id++ {
		if a.node(id).IsAnd() {
			fn(id)
		}
	}
}

// Stats summarizes a network. The JSON names are the schema of the
// dacparad job status and of `aigstat -json`.
type Stats struct {
	PIs   int   `json:"pi"`
	POs   int   `json:"po"`
	Ands  int   `json:"and"`
	Delay int32 `json:"delay"`
}

// Stats returns the network statistics reported in the paper's tables:
// area is the AND count, delay is the maximum PO level.
func (a *AIG) Stats() Stats {
	return Stats{PIs: a.NumPIs(), POs: a.NumPOs(), Ands: a.NumAnds(), Delay: a.Delay()}
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d and=%d delay=%d", s.PIs, s.POs, s.Ands, s.Delay)
}
