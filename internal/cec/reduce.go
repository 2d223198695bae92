package cec

import (
	"math/rand"

	"dacpara/internal/aig"
	"dacpara/internal/sat"
)

const (
	// simWords random 64-pattern words per node form the candidate
	// classes.
	simWords = 4
	// pairBudget bounds the conflicts of each of the two SAT calls that
	// prove a candidate pair.
	pairBudget = 1000
	// maxTries bounds the members of its class a node is proved against.
	maxTries = 4
	// maxCexWords bounds the counterexample words kept per node; further
	// counterexamples overwrite the oldest.
	maxCexWords = 16
)

// Effort counts the work of a functional reduction and of the SAT calls
// made on its encoding. On one input and seed every count repeats
// exactly, on any machine.
type Effort struct {
	// Pairs is the number of candidate pairs handed to SAT, Merges how
	// many of them were proved and merged.
	Pairs, Merges int
	// StructuralHits counts source nodes whose image over the reduced
	// fanins was a constant, an input or a node already built: merged
	// with no proof at all.
	StructuralHits int
	// SATCalls counts solver calls, SATAnswers those that answered SAT:
	// the expensive ones, each a counterexample.
	SATCalls, SATAnswers int64
	// SATConflicts, Decisions and Propagations are the solver's totals.
	SATConflicts, Decisions, Propagations int64
}

// reducer performs functional reduction (fraiging) out of place: it
// rebuilds a source network, in topological order, as a fresh strashed
// graph in which every node SAT proves equal to an earlier one (up to
// complement) is never used — its fanouts are built over the earlier
// node instead. Simulation signatures group nodes into candidate
// classes and two budgeted UNSAT calls back every merge, so the two
// sides of a miter collapse onto each other long before the output
// proofs run; that is what keeps arithmetic miters (dividers,
// multipliers) tractable.
//
// The destination only ever grows by And over nodes that already exist,
// so it is acyclic by construction and node functions never change: no
// aig.Replace, no cascade of re-pointed fanouts, no topological order
// gone stale — the in-place sweep this replaces could re-point an
// earlier node at a later one and close a cycle through the next merge.
// Merged-away nodes stay behind unreferenced; they cost nothing and keep
// the solver's clauses about them true.
type reducer struct {
	dst *aig.AIG
	enc *encoder
	rng *rand.Rand
	npi int32

	// repr maps a destination node to the literal that stands for it:
	// itself, or the class member it was proved equal to.
	repr []aig.Lit
	// A node's signature is its value on simWords*64 random patterns
	// (rnd, node-major; they never change and key the class table) and on
	// the counterexample patterns (cex, one slice per word). Every bit of
	// every word is at all times the node's value on one input pattern:
	// a counterexample word starts as one more random word and its bits
	// are overwritten, on every node at once, as counterexamples arrive;
	// a node built later computes whole words from its fanins' words. So
	// signatures compare word for word with nothing to mask.
	rnd  []uint64
	cex  [][]uint64
	ncex int
	// classes maps the hash of a phase-normalised random signature to
	// the unmerged nodes carrying it, in creation order.
	classes map[uint64][]int32

	eff Effort
}

// reduce rebuilds src and returns the reducer with the images of src's
// outputs in its destination graph (which itself has no outputs).
func reduce(src *aig.AIG, rng *rand.Rand) (*reducer, []aig.Lit) {
	// Every source node yields at most one destination node.
	bound := src.Capacity()
	r := &reducer{
		dst:     aig.New(aig.Options{CapacityHint: int(bound)}),
		rng:     rng,
		npi:     int32(src.NumPIs()),
		repr:    make([]aig.Lit, bound),
		rnd:     make([]uint64, int(bound)*simWords),
		classes: make(map[uint64][]int32),
	}
	r.enc = newEncoder(r.dst, int(bound), true)
	// The constant seeds the all-zero class, so constant nodes — a
	// miter's outputs above all — merge like any other.
	r.classes[r.key(0)] = []int32{0}

	img := make([]aig.Lit, bound)
	for _, pi := range src.PIs() {
		l := r.dst.AddPI()
		img[pi], r.repr[l.Node()] = l, l
		for w := 0; w < simWords; w++ {
			r.rnd[int(l.Node())*simWords+w] = rng.Uint64()
		}
	}
	at := func(l aig.Lit) aig.Lit { return img[l.Node()].XorCompl(l.Compl()) }
	order := src.TopoOrder(nil)
	// Only logic some output reads is worth proving anything about: the
	// generated circuits carry dangling logic (13 % of the ANDs of the
	// twelve flow_verified miters), and sweeping it too costs a sixth
	// more time and 8 % more conflicts (EXPERIMENTS.md E10).
	live := make([]bool, bound)
	for _, po := range src.POs() {
		live[po.Node()] = true
	}
	for i := len(order) - 1; i >= 0; i-- {
		if n := src.N(order[i]); live[order[i]] && n.IsAnd() {
			live[n.Fanin0().Node()], live[n.Fanin1().Node()] = true, true
		}
	}
	for _, id := range order {
		if n := src.N(id); live[id] && n.IsAnd() {
			img[id] = r.and(at(n.Fanin0()), at(n.Fanin1()))
		}
	}
	outs := make([]aig.Lit, src.NumPOs())
	for k, po := range src.POs() {
		outs[k] = at(po)
	}
	return r, outs
}

// and returns the representative of f0 & f1, both representatives.
func (r *reducer) and(f0, f1 aig.Lit) aig.Lit {
	before := r.dst.Capacity()
	l := r.dst.And(f0, f1)
	n := l.Node()
	if n < before {
		// A constant, a fanin or a node that exists. The node may have
		// been merged away since: left at that, every equivalence
		// downstream of it would have to be found again by SAT.
		r.eff.StructuralHits++
		return r.repr[n].XorCompl(l.Compl())
	}
	m0, m1 := complMask(f0), complMask(f1)
	i, i0, i1 := int(n)*simWords, int(f0.Node())*simWords, int(f1.Node())*simWords
	for w := 0; w < simWords; w++ {
		r.rnd[i+w] = (r.rnd[i0+w] ^ m0) & (r.rnd[i1+w] ^ m1)
	}
	for _, c := range r.cex {
		c[n] = (c[f0.Node()] ^ m0) & (c[f1.Node()] ^ m1)
	}
	r.repr[n] = l

	key := r.key(n)
	tries := 0
	for _, m := range r.classes[key] {
		// Compared afresh for every member: a counterexample from the
		// member before may already tell this one apart.
		if !r.sameSignature(n, m) {
			continue
		}
		target := aig.MakeLit(m, r.phase(n) != r.phase(m))
		r.eff.Pairs++
		if r.proveEqual(l, target) {
			r.eff.Merges++
			r.repr[n] = target
			return target
		}
		if tries++; tries == maxTries {
			break
		}
	}
	r.classes[key] = append(r.classes[key], n)
	return l
}

// complMask is all ones for a complemented literal, for use on words.
func complMask(l aig.Lit) uint64 { return -uint64(l & 1) }

// phase normalises signatures so that a node and its complement land in
// the same class: the node's value on the first random pattern.
func (r *reducer) phase(n int32) bool { return r.rnd[int(n)*simWords]&1 == 1 }

func (r *reducer) key(n int32) uint64 {
	m := uint64(0)
	if r.phase(n) {
		m = ^m
	}
	h := uint64(1469598103934665603)
	for _, w := range r.rnd[int(n)*simWords : int(n)*simWords+simWords] {
		h ^= w ^ m
		h *= 1099511628211
	}
	return h
}

// sameSignature reports whether n and m agree, up to their phases, on
// every pattern seen so far, random or counterexample.
func (r *reducer) sameSignature(n, m int32) bool {
	x := uint64(0)
	if r.phase(n) != r.phase(m) {
		x = ^x
	}
	for w := 0; w < simWords; w++ {
		if r.rnd[int(n)*simWords+w]^r.rnd[int(m)*simWords+w] != x {
			return false
		}
	}
	for _, c := range r.cex {
		if c[n]^c[m] != x {
			return false
		}
	}
	return true
}

// proveEqual establishes a == b by two budgeted UNSAT calls.
func (r *reducer) proveEqual(a, b aig.Lit) bool {
	x, y := r.enc.lit(a), r.enc.lit(b)
	return r.refute(x, y.Not()) && r.refute(x.Not(), y)
}

// refute reports whether x & y is unsatisfiable within the pair budget.
// A SAT answer is a pattern that tells the pair apart, and is learnt.
func (r *reducer) refute(x, y sat.Lit) bool {
	isSat, decided := r.enc.solve(pairBudget, x, y)
	if decided && isSat {
		r.learn()
	}
	return decided && !isSat
}

// learn records the solver's model as one more pattern bit on every
// node, so that no later candidate pair this input separates reaches
// SAT. The model fixes the inputs of the solved cone; the others are
// drawn from the seeded rng, so runs repeat exactly.
func (r *reducer) learn() {
	w, bit := r.ncex/64%maxCexWords, uint(r.ncex%64)
	r.ncex++
	last := r.dst.Capacity()
	if w == len(r.cex) {
		// A new word starts as a random one, simulated on every node.
		c := make([]uint64, len(r.repr))
		for pi := int32(1); pi <= r.npi; pi++ {
			c[pi] = r.rng.Uint64()
		}
		for id := r.npi + 1; id < last; id++ {
			n := r.dst.N(id)
			f0, f1 := n.Fanin0(), n.Fanin1()
			c[id] = (c[f0.Node()] ^ complMask(f0)) & (c[f1.Node()] ^ complMask(f1))
		}
		r.cex = append(r.cex, c)
	}
	c := r.cex[w]
	set := func(id int32, v uint64) { c[id] = c[id]&^(1<<bit) | v<<bit }
	var pool uint64
	for pi := int32(1); pi <= r.npi; pi++ {
		if (pi-1)%64 == 0 {
			pool = r.rng.Uint64()
		}
		set(pi, pool>>(uint(pi-1)%64)&1)
	}
	r.enc.modelInputs(func(pi int32, v bool) {
		set(pi, 0)
		if v {
			set(pi, 1)
		}
	})
	// The destination's nodes are, in ID order, the constant, the inputs
	// and the ANDs in creation order, which is a topological one.
	for id := r.npi + 1; id < last; id++ {
		n := r.dst.N(id)
		f0, f1 := n.Fanin0(), n.Fanin1()
		v0 := c[f0.Node()]>>bit ^ uint64(f0&1)
		v1 := c[f1.Node()]>>bit ^ uint64(f1&1)
		set(id, v0&v1&1)
	}
}
