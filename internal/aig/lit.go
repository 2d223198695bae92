// Package aig implements And-Inverter Graphs: the technology-independent
// circuit representation used by DAG-aware rewriting.
//
// An AIG contains a constant-false node (ID 0), primary inputs, and
// two-input AND nodes; inverters live on edges as complement bits of
// literals. Primary outputs are complemented references into the graph.
// The package provides structural hashing (both the decentralized
// fanout-list scheme of Possani et al. and a global map), reference
// counting, MFFC computation, functionally-safe node replacement with
// cascading equivalence merges, levels, 64-bit parallel simulation, and
// AIGER I/O.
//
// Concurrency model: node slots live in an append-only paged store, so a
// node pointer obtained from ID stays valid while other goroutines create
// nodes. Reference counts are atomic. Fanin/fanout fields and fanout lists
// are protected by the caller (the parallel rewriting engines hold
// per-node exclusive locks around every structural mutation; the serial
// engine needs no locks).
package aig

import "fmt"

// Lit is an edge reference: twice the node ID plus a complement bit.
type Lit uint32

// The two constant literals. Node 0 is the constant-false node.
const (
	LitFalse Lit = 0
	LitTrue  Lit = 1
)

// MakeLit builds the literal pointing at node id with the given phase.
func MakeLit(id int32, compl bool) Lit {
	l := Lit(id) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the ID of the node the literal points at.
func (l Lit) Node() int32 { return int32(l >> 1) }

// Compl reports whether the literal is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complement of the literal.
func (l Lit) Not() Lit { return l ^ 1 }

// XorCompl complements the literal when c is true.
func (l Lit) XorCompl(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// IsConst reports whether the literal refers to the constant node.
func (l Lit) IsConst() bool { return l.Node() == 0 }

// String renders the literal as in AIGER, with "!" for complement.
func (l Lit) String() string {
	if l.Compl() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}
