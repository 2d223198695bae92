// Package cut implements k-feasible cut enumeration (k <= 6) with truth
// table computation — the first stage of DAG-aware rewriting.
//
// A cut of node n is a set of nodes ("leaves") covering every path from
// the primary inputs to n. Cuts are enumerated bottom-up: the cut set of
// an AND node is the pairwise merge of its fanins' cut sets plus the
// trivial cut {n}. Each cut carries the Boolean function of n expressed
// over its leaves, which the evaluation stage canonicalizes into an NPN
// class.
//
// The cut width k is a runtime parameter (Params.K). Classic rewriting
// uses k=4; large-cut rewriting raises it to 5 or 6, trading enumeration
// cost for reach. A working Cut always carries a 6-variable table
// (tt.Func64): a cut of Size s never depends on variables >= s, so a
// narrow cut's table is exactly the widened form of its 4-variable table
// and every k=4 comparison is preserved bit for bit. The manager stores
// sets in a packed form sized by the width (stored.go), whose tables are
// narrowed to k variables.
package cut

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dacpara/internal/aig"
	"dacpara/internal/tt"
)

// K is the classic cut width: the paper's rewriting (like ABC's) is
// 4-input cut rewriting, and it remains the default when Params.K is
// unset.
const K = 4

// MaxK is the widest supported cut — the 6-variable ceiling of a
// tt.Func64 table.
const MaxK = tt.MaxVars64

// Cut is a set of at most MaxK leaves together with the function of the
// root node over those leaves. Leaves are sorted ascending; variable i of
// TT corresponds to Leaves[i]. Stamp is the largest leaf version at
// enumeration time. Versions come from the graph's clock, so a leaf that
// moves afterwards (is deleted, and its ID possibly reused for new logic,
// the paper's Fig. 3 hazard) gets a version above Stamp: a cut is stale —
// and must not be trusted — once any leaf's version is above its Stamp.
type Cut struct {
	Leaves [MaxK]int32
	Stamp  uint32
	Size   uint8
	TT     tt.Func64
	sig    uint64
}

// NewCut builds a cut from a sorted leaf slice and its function.
func NewCut(leaves []int32, f tt.Func64) Cut {
	var c Cut
	c.Size = uint8(len(leaves))
	copy(c.Leaves[:], leaves)
	c.TT = f
	for _, l := range leaves {
		c.sig |= 1 << (uint(l) & 63)
	}
	return c
}

// Fresh reports whether every leaf of the cut is still alive in the same
// incarnation it had when the cut was enumerated: no leaf's version is
// above Stamp. Only the atomic versions are read, so Fresh is safe as a
// lock-free pre-filter: a leaf's version moves above every stamp taken
// before, when it is deleted (and again if its ID is reused), and a leaf
// in the middle of a move reads above every stamp too.
func (c *Cut) Fresh(a *aig.AIG) bool {
	for i := uint8(0); i < c.Size; i++ {
		if a.N(c.Leaves[i]).Version() > c.Stamp {
			return false
		}
	}
	return true
}

// LeafSlice returns the live leaves.
func (c *Cut) LeafSlice() []int32 { return c.Leaves[:c.Size] }

// Contains reports whether id is a leaf of the cut.
func (c *Cut) Contains(id int32) bool {
	if c.sig&(1<<(uint(id)&63)) == 0 {
		return false
	}
	for i := uint8(0); i < c.Size; i++ {
		if c.Leaves[i] == id {
			return true
		}
	}
	return false
}

// SameLeaves reports whether two cuts have identical leaf sets.
func (c *Cut) SameLeaves(d *Cut) bool {
	if c.Size != d.Size || c.sig != d.sig {
		return false
	}
	for i := uint8(0); i < c.Size; i++ {
		if c.Leaves[i] != d.Leaves[i] {
			return false
		}
	}
	return true
}

// dominates reports whether c's leaves are a subset of d's.
func (c *Cut) dominates(d *Cut) bool {
	if c.Size > d.Size || c.sig&^d.sig != 0 {
		return false
	}
	for i := uint8(0); i < c.Size; i++ {
		if !d.Contains(c.Leaves[i]) {
			return false
		}
	}
	return true
}

// Params configure enumeration.
type Params struct {
	// K is the cut width, 4..MaxK. 0 means the classic 4-input width.
	K int

	// MaxCuts is the cut limit: it bounds the number of cuts stored per
	// node (the trivial cut is always kept and does not count). The
	// paper's P1 configuration uses 8; 0 means DefaultCutLimit(K).
	MaxCuts int
}

// DefaultCutLimit returns the default per-node cut budget for width k.
// Wider cuts multiply merge work per pair, so the budget shrinks as k
// grows: 54 matches ABC's 4-input practice, 12 matches mockturtle's
// cut_limit default for k=6.
func DefaultCutLimit(k int) int {
	switch {
	case k <= 4:
		return 54
	case k == 5:
		return 24
	default:
		return 12
	}
}

// k resolves the width: 0 or less is the classic K, and the rest clamps
// to K..MaxK, the widths a stored cut has a stride for.
func (p Params) k() int {
	if p.K <= 0 {
		return K
	}
	return min(max(p.K, K), MaxK)
}

// maxCuts resolves the cut limit: the configured value when set,
// otherwise the width-dependent default. The limit is config-driven, not
// derived from K, so callers can trade memory for quality at any width.
func (p Params) maxCuts() int {
	if p.MaxCuts <= 0 {
		return DefaultCutLimit(p.k())
	}
	return p.MaxCuts
}

const (
	cutPageBits = 12
	cutPageSize = 1 << cutPageBits
	cutPageMask = cutPageSize - 1
)

// entry is a node's stored cut set.
//
// state is the one word other workers may look at. It is 0 for an entry
// that holds nothing, epoch<<32 | node version once the set has been
// computed for that incarnation in that epoch, and busy while one
// worker — the one whose compare-and-swap put busy there — is computing
// it. The set belongs to that worker until it stores the word that
// publishes it. The set is in the stored form, stride(k) words a cut.
type entry struct {
	state atomic.Uint64
	cuts  []uint32
}

// busy is the state of an entry one worker is computing. No published
// word equals it: that would take the last epoch and the last version at
// once.
const busy = ^uint64(0)

type cutPage [cutPageSize]entry

// Manager stores the cut sets of every node (the paper's "Cut Manager")
// until the node dies: the commit that deletes a node gives its set back
// (Release). Entries live in an append-only paged store, so the table can
// grow while other goroutines hold entry pointers.
//
// Who may touch an entry is decided by the entry itself, not by a lock
// (the publish rule): a set published for the node's current incarnation
// in the current epoch is immutable and anyone may read it; an entry that
// is not is written by the one worker that claimed it, and a worker that
// meets a claimed entry waits for the publication. A worker only ever
// waits for an entry in the cone below one it has claimed, and the graph
// is acyclic, so the deepest claim is always held by a worker that is
// computing, not waiting. Workers may therefore enumerate any nodes of an
// unchanging graph at once with no visitor. What the rule does not cover
// is a graph that changes underneath: RefreshP and the fused operator run
// while replacements do, and the visitor's node locks are what keeps an
// entry from being republished while the activity that read it goes on.
type Manager struct {
	a      *aig.AIG
	params Params

	// epoch is stamped into every published entry: a set published under
	// an older one is recomputed on its next Ensure. Written only between
	// sweeps (NextEpoch), read by all workers during one.
	epoch uint32

	pages  atomic.Pointer[[]*cutPage]
	growMu sync.Mutex
}

// NewManager creates a cut manager for the graph.
func NewManager(a *aig.AIG, params Params) *Manager {
	m := &Manager{a: a, params: params, epoch: 1}
	pages := make([]*cutPage, 0, 8)
	m.pages.Store(&pages)
	m.grow(a.Capacity())
	return m
}

// K returns the resolved cut width the manager enumerates with.
func (m *Manager) K() int { return m.params.k() }

// NextEpoch forgets every stored set: the next Ensure of each node
// recomputes it into the storage it already holds. A rewriting run calls
// it before each pass after the first, so one manager and its storage
// serve every pass. It must never race with enumeration.
func (m *Manager) NextEpoch() { m.epoch++ }

// Release forgets node id's cut set and gives its storage to pool. A
// commit calls it for every node it deleted, once the replacement is
// done: no live node's set enumerates through a dead one, and candidates
// hold their cuts by value, so the set has no reader left. The caller
// must be the entry's only user — a serial commit, which never overlaps a
// sweep, or an activity holding the node's lock.
func (m *Manager) Release(id int32, pool *Pool) {
	e := m.entry(id)
	poolPut(pool, e.cuts, stride(m.K()))
	e.cuts = nil
	e.state.Store(0)
}

func (m *Manager) grow(n int32) {
	for {
		pages := *m.pages.Load()
		if int32(len(pages))*cutPageSize > n {
			return
		}
		m.growMu.Lock()
		cur := *m.pages.Load()
		if int32(len(cur))*cutPageSize > n {
			m.growMu.Unlock()
			continue
		}
		next := make([]*cutPage, len(cur), len(cur)*2+2)
		copy(next, cur)
		for int32(len(next))*cutPageSize <= n {
			next = append(next, new(cutPage))
		}
		m.pages.Store(&next)
		m.growMu.Unlock()
	}
}

func (m *Manager) entry(id int32) *entry {
	m.grow(id)
	pages := *m.pages.Load()
	return &pages[id>>cutPageBits][id&cutPageMask]
}

// Cuts returns node id's stored cut set, unpacked into a new slice, and
// whether a set computed for the node's current incarnation in this epoch
// exists. The first cut, when present, is the trivial cut. Individual
// cuts may still be stale (Cut.Fresh).
func (m *Manager) Cuts(id int32) ([]Cut, bool) { return m.CutsP(id, nil) }

// CutsP is Cuts unpacking into a buffer of the per-worker pool instead,
// with no allocation once the buffer has grown: the set stays there until
// the pool's next CutsP, which is all an evaluator needs. Enumeration
// through the pool leaves it alone. A nil pool allocates, as Cuts does.
func (m *Manager) CutsP(id int32, pool *Pool) ([]Cut, bool) {
	e := m.entry(id)
	if e.state.Load() != m.published(id) {
		return nil, false
	}
	k := m.K()
	return unpackSet(pool.buf(bufRead, len(e.cuts)/stride(k)), e.cuts, k, nil), true
}

// Holds reports whether node id's entry holds cut storage, published or
// not: what Release would give back.
func (m *Manager) Holds(id int32) bool { return cap(m.entry(id).cuts) > 0 }

// published is the state word of node id's entry once its set is
// computed for the node's current incarnation in this epoch.
func (m *Manager) published(id int32) uint64 {
	return uint64(m.epoch)<<32 | uint64(m.a.N(id).Version())
}

// trivial returns the unit cut of a node. Built field by field (not via
// NewCut) so the hot enumeration path never materializes a leaf slice.
func (m *Manager) trivial(id int32) Cut {
	var c Cut
	c.Size = 1
	c.Leaves[0] = id
	c.Stamp = m.a.N(id).Version()
	c.TT = tt.Var64(0)
	c.sig = 1 << (uint(id) & 63)
	return c
}

// constCut is the empty cut of the constant node.
func constCut() Cut { return NewCut(nil, tt.False64) }

// Visitor is called by Ensure for every node whose cut entry it reads or
// writes, before the access. Operators that run while the graph changes
// acquire the node's exclusive lock here and return false on conflict,
// aborting enumeration.
type Visitor func(id int32) bool

// Ensure computes and stores the cut set of id unless one is published
// for the node's incarnation in this epoch, recursively ensuring fanin
// cut sets first; Cuts reads the set. With a nil visitor it is safe to
// call from any number of goroutines while the graph does not change (see
// Manager). visit, when non-nil, is invoked for every node touched — the
// paper's Section 4.2, enumeration "recursively acquires exclusive locks
// for the current node and all its relevant nodes"; a false return aborts
// with false, every claim the call held given back.
func (m *Manager) Ensure(id int32, visit Visitor) bool {
	return m.EnsureP(id, visit, nil)
}

// EnsureP is Ensure with a per-worker storage pool: merge scratch,
// unpacked fanin sets and entry storage come from (and return to) the
// pool, so steady-state enumeration with a warm pool performs no heap
// allocation. A nil pool falls back to plain allocation. CutsP reads the
// set through the same pool.
func (m *Manager) EnsureP(id int32, visit Visitor, pool *Pool) bool {
	_, ok := m.ensure(id, visit, pool)
	return ok
}

// ensure is EnsureP returning the published set in its stored form.
func (m *Manager) ensure(id int32, visit Visitor, pool *Pool) ([]uint32, bool) {
	if visit != nil && !visit(id) {
		return nil, false
	}
	n := m.a.N(id)
	e := m.entry(id)
	valid := m.published(id)
	// Read a published set, or claim the entry; a claimed one is on its way
	// to being published (or, after an abort, to being claimable again).
	var old uint64
	for {
		if old = e.state.Load(); old == valid {
			return e.cuts, true
		}
		if old != busy && e.state.CompareAndSwap(old, busy) {
			break
		}
		runtime.Gosched()
	}
	switch n.Kind() {
	case aig.KindConst, aig.KindPI:
		var one [1]Cut
		if n.Kind() == aig.KindConst {
			one[0] = constCut()
		} else {
			one[0] = m.trivial(id)
		}
		m.commit(e, one[:], pool)
	case aig.KindAnd:
		f0, f1 := n.Fanin0(), n.Fanin1()
		w0, ok := m.ensure(f0.Node(), visit, pool)
		var w1 []uint32
		if ok {
			w1, ok = m.ensure(f1.Node(), visit, pool)
		}
		if !ok {
			// The activity aborts: give the claim back, or the entry would
			// keep every later visitor waiting.
			e.state.Store(old)
			return nil, false
		}
		// Each fanin set is unpacked once, for all of its pairs, and
		// without the cuts a rewrite has made stale since they were
		// enumerated: those whose leaves were deleted or reused.
		k := m.K()
		s := stride(k)
		dst, b0, b1 := pool.mergeBuffers(m.params.maxCuts()+2, len(w0)/s, len(w1)/s)
		s0 := unpackSet(b0, w0, k, m.a)
		s1 := unpackSet(b1, w1, k, m.a)
		m.commit(e, m.mergeInto(dst, id, f0, f1, s0, s1), pool)
		if pool != nil {
			pool.merges++
		}
	default:
		// A dead node has no cuts; store an empty set for its current
		// incarnation so callers see "enumerated, nothing usable".
		m.commit(e, nil, pool)
	}
	cuts := e.cuts
	e.state.Store(valid)
	return cuts, true
}

// commit packs res into the claimed entry, recycling storage through the
// pool: the resident slice is reused in place whenever it is large
// enough, so a recompute that reproduces the previous set's size
// allocates nothing.
func (m *Manager) commit(e *entry, res []Cut, pool *Pool) {
	k := m.K()
	s := stride(k)
	if n := len(res) * s; cap(e.cuts) >= n {
		if n == 0 && cap(e.cuts) > 0 {
			// A dying entry donates its storage instead of pinning it.
			poolPut(pool, e.cuts, s)
			e.cuts = nil
		} else {
			e.cuts = e.cuts[:n]
		}
	} else {
		poolPut(pool, e.cuts, s)
		e.cuts = poolGet(pool, len(res), s)
	}
	for i := range res {
		pack(e.cuts[i*s:], &res[i], k)
	}
}

// RefreshP recomputes id's cut set on the latest graph even if a set for
// the current incarnation exists — the paper's re-enumeration step when a
// stored result is found outdated at replacement time. Fanin sets are
// reused (Ensure semantics) with their stale cuts filtered out; CutsP
// reads the new set. pool is a per-worker storage pool, or nil (see
// EnsureP).
func (m *Manager) RefreshP(id int32, visit Visitor, pool *Pool) bool {
	if visit != nil && !visit(id) {
		return false
	}
	m.entry(id).state.Store(0)
	return m.EnsureP(id, visit, pool)
}

// mergeInto computes the cut set of an AND node from the fresh cuts of
// its fanins' sets into the caller-provided scratch.
//
// Each pair is merged leaves first; most unions are then dropped by the
// dominance test, and only a cut that is kept has its function computed.
// The stamp is the parents': their freshness was established against
// those very values, so a leaf that moves afterwards leaves a cut Fresh
// rejects, never a new stamp on the old incarnation's function.
func (m *Manager) mergeInto(dst []Cut, id int32, f0, f1 aig.Lit, s0, s1 []Cut) []Cut {
	k := m.params.k()
	maxCuts := m.params.maxCuts()
	dst = append(dst, m.trivial(id))
	var c Cut
	var p0, p1 [MaxK]uint8
	for i := range s0 {
		for j := range s1 {
			if !mergeLeaves(&c, &s0[i], &s1[j], k, &p0, &p1) || dominated(dst, &c) {
				continue
			}
			c.TT = mergeFunc(&s0[i], &s1[j], &p0, &p1, f0.Compl(), f1.Compl())
			dst = insertCut(dst, &c)
			if len(dst) > maxCuts {
				// Keep the budget: drop the widest non-trivial cut.
				drop := 1
				for x := 2; x < len(dst); x++ {
					if dst[x].Size > dst[drop].Size {
						drop = x
					}
				}
				dst = append(dst[:drop], dst[drop+1:]...)
			}
		}
	}
	return dst
}

// dominated reports whether a stored cut's leaves are a subset of c's.
// Index 0 (the trivial cut) is never considered for dominance.
func dominated(s []Cut, c *Cut) bool {
	for x := 1; x < len(s); x++ {
		if s[x].dominates(c) {
			return true
		}
	}
	return false
}

// insertCut appends c, which no stored cut dominates, after removing the
// stored cuts c dominates.
func insertCut(s []Cut, c *Cut) []Cut {
	w := 1
	for x := 1; x < len(s); x++ {
		if !c.dominates(&s[x]) {
			if w != x {
				s[w] = s[x]
			}
			w++
		}
	}
	return append(s[:w], *c)
}

// mergeLeaves unions the leaves of two fanin cuts into c — leaves, the
// larger of the parents' stamps, size and signature, all else zero — and
// notes in p0 and p1 the position each parent's leaf takes in the union.
// It fails when the union exceeds k leaves.
func mergeLeaves(c, c0, c1 *Cut, k int, p0, p1 *[MaxK]uint8) bool {
	// Quick reject: the signature ORs bits (id mod 64), so distinct set
	// bits never exceed the true union size; more than k bits set proves
	// the union is infeasible.
	sig := c0.sig | c1.sig
	if int(c0.Size)+int(c1.Size) > k && bits.OnesCount64(sig) > k {
		return false
	}
	*c = Cut{}
	i, j, n := uint8(0), uint8(0), uint8(0)
	for i < c0.Size || j < c1.Size {
		if int(n) == k {
			return false
		}
		switch {
		case j == c1.Size || i < c0.Size && c0.Leaves[i] < c1.Leaves[j]:
			c.Leaves[n], p0[i] = c0.Leaves[i], n
			i++
		case i == c0.Size || c1.Leaves[j] < c0.Leaves[i]:
			c.Leaves[n], p1[j] = c1.Leaves[j], n
			j++
		default:
			c.Leaves[n], p0[i], p1[j] = c0.Leaves[i], n, n
			i, j = i+1, j+1
		}
		n++
	}
	c.Size, c.sig, c.Stamp = n, sig, max(c0.Stamp, c1.Stamp)
	return true
}

// mergeFunc is the conjunction of the (possibly complemented) fanin cut
// functions over the union leaf set mergeLeaves laid out.
func mergeFunc(c0, c1 *Cut, p0, p1 *[MaxK]uint8, n0, n1 bool) tt.Func64 {
	t0 := expand(c0.TT, p0[:c0.Size])
	t1 := expand(c1.TT, p1[:c1.Size])
	if n0 {
		t0 = t0.Not()
	}
	if n1 {
		t1 = t1.Not()
	}
	return t0.And(t1)
}

// expand re-expresses f, a function of variables 0..len(pos)-1, over a
// superset of its leaves in which variable i sits at pos[i] (ascending,
// pos[i] >= i). Variables move highest first: when i's turn comes, every
// variable above it has left the slots up to pos[i], so f does not depend
// on pos[i] and exchanging the two moves i and nothing else. A swap is
// exact on the whole 64-row table, so the result ignores exactly the
// variables that carry no leaf — the replication a narrow cut's table has
// over the unused upper variables.
func expand(f tt.Func64, pos []uint8) tt.Func64 {
	for i := len(pos) - 1; i >= 0 && int(pos[i]) != i; i-- {
		f = f.SwapVars(i, int(pos[i]))
	}
	return f
}
