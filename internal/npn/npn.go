// Package npn implements NPN classification of Boolean functions of up to
// six inputs.
//
// Two functions are NPN-equivalent when one can be obtained from the other
// by Negating inputs, Permuting inputs and/or Negating the output. The
// 65536 functions of four variables fall into exactly 222 NPN classes;
// DAG-aware rewriting precomputes replacement structures once per class
// and maps concrete cut functions onto them through the transform that
// canonicalizes the cut function.
//
// For the 4-variable space the package computes, at initialization, the
// canonical representative of every function together with a compact
// transform between the function and its representative (Manager), so
// canonicalization of a cut function at rewrite time is a single table
// lookup. The 5- and 6-variable spaces are too large to tabulate and are
// classified semi-canonically on demand (SemiCanon). Both speak one
// Transform over six positions; a 4-variable transform is the identity on
// x4 and x5.
package npn

import (
	"sync"

	"dacpara/internal/tt"
)

// Shared returns a process-wide Manager, built on first use. The manager
// is immutable, so sharing it between engines and goroutines is safe.
var Shared = sync.OnceValue(NewManager)

// Transform describes an NPN mapping g = T(f) defined by
//
//	g(x0..x5) = Neg XOR f(y0..y5),  y_i = x_{Perm[i]} XOR bit i of Flip.
//
// Perm is a permutation of {0..5}; Flip holds input complementations;
// Neg complements the output.
type Transform struct {
	Perm [6]uint8
	Flip uint8
	Neg  bool
}

// Identity is the transform that maps every function to itself.
var Identity = Transform{Perm: [6]uint8{0, 1, 2, 3, 4, 5}}

// Apply computes T(f) in word operations: one FlipVar per set bit of
// Flip, then Perm sorted to the identity by at most five exchanges, each
// a SwapVars on the table (exchanging entries a and b of the permutation
// of g(x) = h(x_{Perm[0]}..x_{Perm[5]}) exchanges variables a and b of
// h), then Not for Neg. Semi-canonical classification calls it once per
// candidate ordering, which made the row-by-row form (kept in the tests
// as the reference) 87 % of a k = 5 run.
func (t Transform) Apply(f tt.Func64) tt.Func64 {
	for v := 0; v < 6; v++ {
		if t.Flip>>uint(v)&1 == 1 {
			f = f.FlipVar(v)
		}
	}
	p := t.Perm
	for a := 0; a < 5; a++ {
		for b := a + 1; p[a] != uint8(a); b++ {
			if p[b] == uint8(a) {
				p[a], p[b] = p[b], p[a]
				f = f.SwapVars(a, b)
			}
		}
	}
	if t.Neg {
		f = f.Not()
	}
	return f
}

// Compose returns the transform equivalent to applying a first and then t,
// i.e. Compose(t, a).Apply(f) == t.Apply(a.Apply(f)).
func Compose(t, a Transform) Transform {
	var c Transform
	for i := 0; i < 6; i++ {
		c.Perm[i] = t.Perm[a.Perm[i]]
		flip := a.Flip>>uint(i)&1 ^ t.Flip>>uint(a.Perm[i])&1
		c.Flip |= flip << uint(i)
	}
	c.Neg = t.Neg != a.Neg
	return c
}

// Inverse returns the transform that undoes t:
// t.Inverse().Apply(t.Apply(f)) == f.
func (t Transform) Inverse() Transform {
	var inv Transform
	for i := uint8(0); i < 6; i++ {
		p := t.Perm[i]
		inv.Perm[p] = i
		inv.Flip |= (t.Flip >> uint(i) & 1) << uint(p)
	}
	inv.Neg = t.Neg
	return inv
}

// Class identifies one NPN equivalence class.
type Class struct {
	// Repr is the canonical representative: the numerically smallest
	// truth table in the class.
	Repr tt.Func16
	// Index is the dense class index in [0, NumClasses).
	Index int
	// Size is the number of distinct truth tables in the class.
	Size int
}

// Manager holds the full NPN classification of the 4-variable function
// space. It is immutable after construction and safe for concurrent use.
type Manager struct {
	canon     [65536]tt.Func16
	fromCanon [65536]Transform
	classOf   [65536]uint8
	classes   []Class
}

// generator is one element of a generating set of the 4-variable NPN
// group: as a transform, and as the word operation that applies it to a
// table.
type generator struct {
	t  Transform
	op func(tt.Func64) tt.Func64
}

// generators returns the three adjacent transpositions, the four input
// flips and the output negation.
func generators() []generator {
	var gs []generator
	for v := 0; v < 3; v++ {
		t := Identity
		t.Perm[v], t.Perm[v+1] = t.Perm[v+1], t.Perm[v]
		gs = append(gs, generator{t, func(f tt.Func64) tt.Func64 { return f.SwapVars(v, v+1) }})
	}
	for v := 0; v < 4; v++ {
		t := Identity
		t.Flip = 1 << uint(v)
		gs = append(gs, generator{t, func(f tt.Func64) tt.Func64 { return f.FlipVar(v) }})
	}
	return append(gs, generator{Transform{Perm: Identity.Perm, Neg: true}, tt.Func64.Not})
}

// NewManager computes the classification: a breadth-first walk of every
// orbit under the generators, each applied to the widened table in a few
// word operations. It takes 4–8 ms (BenchmarkManagerBuild) and is
// typically called once per process (see Shared).
func NewManager() *Manager {
	m := &Manager{}
	var seen [65536]bool
	gens := generators()
	queue := make([]tt.Func16, 0, 768)
	for f := 0; f < 65536; f++ {
		if seen[f] {
			continue
		}
		// Every smaller function already has its orbit, so f is the
		// smallest of its own: the representative. The walk records for
		// every member the transform from f to it.
		repr, idx := tt.Func16(f), len(m.classes)
		seen[f] = true
		m.fromCanon[f] = Identity
		queue = append(queue[:0], repr)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			m.canon[cur], m.classOf[cur] = repr, uint8(idx)
			wide := cur.Wide()
			for _, g := range gens {
				next := g.op(wide).Narrow16()
				if !seen[next] {
					seen[next] = true
					m.fromCanon[next] = Compose(g.t, m.fromCanon[cur])
					queue = append(queue, next)
				}
			}
		}
		m.classes = append(m.classes, Class{Repr: repr, Index: idx, Size: len(queue)})
	}
	return m
}

// Canon returns the canonical representative of f's NPN class.
func (m *Manager) Canon(f tt.Func16) tt.Func16 { return m.canon[f] }

// FromCanon returns the transform t with t.Apply(Canon(f)) == f, the one
// that carries a structure built for the representative onto f's inputs
// and output.
func (m *Manager) FromCanon(f tt.Func16) Transform { return m.fromCanon[f] }

// ToCanon returns the transform t with t.Apply(f) == Canon(f).
func (m *Manager) ToCanon(f tt.Func16) Transform { return m.fromCanon[f].Inverse() }

// ClassIndex returns the dense index of f's NPN class.
func (m *Manager) ClassIndex(f tt.Func16) int { return int(m.classOf[f]) }

// Classes returns all NPN classes ordered by representative.
func (m *Manager) Classes() []Class { return m.classes }

// NumClasses returns the number of NPN classes (222 for four variables).
func (m *Manager) NumClasses() int { return len(m.classes) }
