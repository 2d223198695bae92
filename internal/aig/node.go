package aig

// Kind discriminates the node types of an AIG.
type Kind uint8

// Node kinds. Primary outputs are not nodes; they are complemented
// references held by the graph. KindFree is deliberately the zero value:
// a freshly allocated slot that was never initialized (for example when a
// parallel engine's lock filter rejected the ID) must read as dead, not
// as a constant.
const (
	KindFree  Kind = iota // dead slot available for ID reuse
	KindConst             // the constant-false node, always ID 0
	KindPI                // primary input
	KindAnd               // two-input AND gate
)

func (k Kind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindPI:
		return "pi"
	case KindAnd:
		return "and"
	case KindFree:
		return "free"
	}
	return "invalid"
}

// The meta word packs kind (2 bits) and level (30 bits) into one atomic
// uint32: kind and level always travel together through the hot sweeps
// (levelize, topological walks, worklist partitioning), so one load
// serves both. 2^30 levels is far beyond any combinational depth.
const (
	kindShift = 30
	levelMask = 1<<kindShift - 1
)

// Node is a handle to one slot of the graph: a pointer to the slot's page
// plus the index within it. Node storage itself is struct-of-arrays (see
// the page type in aig.go): each field lives in its own dense per-page
// array, so sweeps that read one field across many nodes — level updates,
// simulation, strash scans — touch sequential memory instead of striding
// over full node records. Handles are small values; copy them freely.
//
// Field synchronization: kind+level (one packed word), the fanin pair
// (another), the reference count and the incarnation version are atomic,
// so the lock-free evaluation stage and speculative activities may read
// them at any time (they see a consistent individual value; cross-field
// consistency requires the node's exclusive lock, which every writer
// holds). The fanout list is accessed only under the node's lock (or
// single-threaded).
type Node struct {
	p *page
	i int32
}

// Version identifies the node slot's incarnation: it is stamped from the
// graph's clock every time the slot is allocated for a new AND gate and
// every time the gate is deleted, so it only grows, and a version taken
// before a change is below every version after it. A stored reference to
// node id taken at version v is stale — the node was deleted, and its ID
// possibly reused for different logic (the paper's Fig. 3 hazard) —
// exactly when Version() != v; a set of references taken when none was
// above s is stale exactly when one is now. PIs and the constant are
// never deleted; their version stays 0.
func (n Node) Version() uint32 { return n.p.version[n.i].Load() }

// Kind returns the node's kind.
func (n Node) Kind() Kind { return Kind(n.p.meta[n.i].Load() >> kindShift) }

// setKind rewrites the kind bits, preserving the level. The caller holds
// the node's exclusive lock (all meta writers do), so the load-modify-
// store cannot lose a concurrent write.
func (n Node) setKind(k Kind) {
	m := n.p.meta[n.i].Load()
	n.p.meta[n.i].Store(m&levelMask | uint32(k)<<kindShift)
}

// setLevel rewrites the level bits, preserving the kind (same locking
// contract as setKind).
func (n Node) setLevel(l int32) {
	m := n.p.meta[n.i].Load()
	n.p.meta[n.i].Store(m&^uint32(levelMask) | uint32(l)&levelMask)
}

// IsAnd reports whether the node is a live AND gate.
func (n Node) IsAnd() bool { return n.Kind() == KindAnd }

// IsPI reports whether the node is a primary input.
func (n Node) IsPI() bool { return n.Kind() == KindPI }

// IsDead reports whether the slot is free.
func (n Node) IsDead() bool { return n.Kind() == KindFree }

// Fanin0 returns the first (smaller-literal) fanin of an AND node.
func (n Node) Fanin0() Lit { return Lit(uint32(n.p.fanins[n.i].Load())) }

// Fanin1 returns the second fanin of an AND node.
func (n Node) Fanin1() Lit { return Lit(n.p.fanins[n.i].Load() >> 32) }

// setFanins stores both fanins in one word, so no reader sees half of the
// change.
func (n Node) setFanins(f0, f1 Lit) { n.p.fanins[n.i].Store(faninPair(f0, f1)) }

// faninPair is the fanin word of an AND over (f0, f1).
func faninPair(f0, f1 Lit) uint64 { return uint64(f1)<<32 | uint64(f0) }

// Ref returns the current reference count: the number of AND fanins and
// primary outputs pointing at the node.
func (n Node) Ref() int32 { return n.p.ref[n.i].Load() }

func (n Node) refAdd(d int32) int32 { return n.p.ref[n.i].Add(d) }

func (n Node) refStore(v int32) { n.p.ref[n.i].Store(v) }

// Level returns the node's depth: 0 for PIs and the constant, and
// 1+max(fanin levels) for AND nodes. Levels are maintained on creation and
// recomputed on demand after replacements (see AIG.Levelize).
func (n Node) Level() int32 { return int32(n.p.meta[n.i].Load() & levelMask) }

// FanoutCount returns the length of the fanout list (including PO
// references).
func (n Node) FanoutCount() int { return len(n.p.fanouts[n.i]) }

// Fanouts returns the node's fanout list. Entries >= 0 are AND node IDs;
// an entry -(k+1) is a reference from primary output k. The slice is the
// live list: callers must hold the node's lock in parallel contexts and
// must not mutate it.
func (n Node) Fanouts() []int32 { return n.p.fanouts[n.i] }

// addFanout appends a fanout entry.
func (n Node) addFanout(e int32) { n.p.fanouts[n.i] = append(n.p.fanouts[n.i], e) }

// resetFanouts empties the fanout list, keeping its backing storage.
func (n Node) resetFanouts() { n.p.fanouts[n.i] = n.p.fanouts[n.i][:0] }

// removeFanout deletes one occurrence of e from the fanout list.
func (n Node) removeFanout(e int32) bool {
	s := n.p.fanouts[n.i]
	for i, x := range s {
		if x == e {
			last := len(s) - 1
			s[i] = s[last]
			n.p.fanouts[n.i] = s[:last]
			return true
		}
	}
	return false
}

// POFanout converts a PO index to its fanout-list encoding.
func POFanout(poIndex int) int32 { return -int32(poIndex) - 1 }

// IsPOFanout reports whether a fanout entry refers to a primary output,
// returning the PO index.
func IsPOFanout(e int32) (int, bool) {
	if e < 0 {
		return int(-e - 1), true
	}
	return 0, false
}
