// Package rewlib builds the precomputed structure library ("Structure
// Manager") used by DAG-aware rewriting: for each of the 222 NPN classes
// of 4-input functions, a forest of alternative AIG structures
// implementing the class representative (Library), and for the 5- and
// 6-input classes a forest per semi-canonical representative, filled on
// demand (Library.ForRepr).
//
// ABC ships an offline-enumerated forest; this package synthesizes an
// equivalent one at startup by running a family of decomposition policies
// (single-literal AND/OR extraction, XOR extraction, Shannon/MUX
// expansion, and ISOP-based algebraic factoring) over every canonical
// function, under a set of variable preference orders and both output
// phases, then deduplicating and ranking the resulting DAGs by node
// count. Structures within one DAG share subfunctions through
// builder-local structural hashing, mirroring the shared-node forest of
// ABC's library. One synthesizer over 64-bit tables serves both
// libraries; the 4-input one is its nv = 4 case.
package rewlib

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dacpara/internal/galois"
	"dacpara/internal/npn"
	"dacpara/internal/tt"
)

// SLit is a literal inside a Structure: 2*index + complement, where index
// 0 is constant false, 1..6 are the inputs x0..x5, and 7+k is AND node k.
// The input band is sized for the 6-variable ceiling of large-cut
// rewriting; 4-input structures simply never reference x4 or x5.
type SLit uint16

// MaxInputs is the input capacity of a structure (the large-cut ceiling).
const MaxInputs = 6

// sAndBase is the node index of the first AND gate.
const sAndBase = 1 + MaxInputs

// Structure literal constants for the constant node and inputs.
const (
	SConstFalse SLit = 0
	SConstTrue  SLit = 1
)

// SInput returns the structure literal of input variable v (0..5).
func SInput(v int) SLit { return SLit(2 * (1 + v)) }

func (l SLit) index() int    { return int(l >> 1) }
func (l SLit) compl() bool   { return l&1 == 1 }
func (l SLit) not() SLit     { return l ^ 1 }
func (l SLit) isInput() bool { i := l.index(); return i >= 1 && i <= MaxInputs }

// IsInput reports whether the literal refers to one of the inputs,
// returning the variable number.
func (l SLit) IsInput() (int, bool) {
	if l.isInput() {
		return l.index() - 1, true
	}
	return 0, false
}

// IsConst reports whether the literal is a constant, returning its value.
func (l SLit) IsConst() (bool, bool) {
	if l.index() == 0 {
		return l.compl(), true
	}
	return false, false
}

// AndIndex returns the AND-node index of an internal literal, or -1.
func (l SLit) AndIndex() int {
	if i := l.index(); i >= sAndBase {
		return i - sAndBase
	}
	return -1
}

// sAnd returns the literal of AND node k.
func sAnd(k int) SLit { return SLit(2 * (sAndBase + k)) }

// Compl returns the literal with phase conditionally flipped.
func (l SLit) Compl(c bool) SLit {
	if c {
		return l ^ 1
	}
	return l
}

// SNode is one AND gate of a structure.
type SNode struct {
	In0, In1 SLit
}

// Structure is a DAG of AND gates over at most six inputs, with a
// designated output literal. Nodes are topologically ordered: fanins of
// Nodes[k] refer only to inputs, constants, or Nodes[<k].
type Structure struct {
	Nodes []SNode
	Out   SLit
}

// NumNodes returns the AND-gate count of the structure.
func (s *Structure) NumNodes() int { return len(s.Nodes) }

// Eval64 computes the structure's function when input v carries table
// in[v], over the 6-variable domain.
func (s *Structure) Eval64(in [MaxInputs]tt.Func64) tt.Func64 {
	// Every structure the synthesizer has built fits the stack buffer
	// (the largest has 54 gates), so verifying one allocates nothing.
	var buf [64]tt.Func64
	vals := buf[:]
	if len(s.Nodes) > len(buf) {
		vals = make([]tt.Func64, len(s.Nodes))
	}
	fetch := func(l SLit) tt.Func64 {
		var v tt.Func64
		switch {
		case l.index() == 0:
			v = tt.False64
		case l.isInput():
			v = in[l.index()-1]
		default:
			v = vals[l.index()-sAndBase]
		}
		if l.compl() {
			v = v.Not()
		}
		return v
	}
	for k, n := range s.Nodes {
		vals[k] = fetch(n.In0).And(fetch(n.In1))
	}
	return fetch(s.Out)
}

// Func64 returns the structure's function over the plain variables of the
// 6-variable domain.
func (s *Structure) Func64() tt.Func64 {
	var in [MaxInputs]tt.Func64
	for v := range in {
		in[v] = tt.Var64(v)
	}
	return s.Eval64(in)
}

// Library is the structure forest: dense over the 222 4-input classes,
// immutable after Build, and lazily filled, behind a lock, over the
// 5/6-input classes rewriting meets (ForRepr). It is safe for concurrent
// use and must not be copied.
type Library struct {
	npn       *npn.Manager
	structs   [][]Structure // by class index
	practical []int         // every class index, in PracticalClasses order

	bigMu sync.RWMutex
	big   map[tt.Func64][]Structure // by semi-canonical representative
}

// Params configure library construction.
type Params struct {
	// MaxPerClass bounds the number of structures kept per class;
	// 0 keeps every distinct structure the policies produce.
	MaxPerClass int
}

// Build synthesizes the library, its classes split across a
// GOMAXPROCS-wide worker team. It returns an error if any generated
// structure fails functional verification against its class
// representative (which would indicate a bug, not bad input): the first
// such class in class order, so the error, like the library, is the same
// at every team width. A panic in synthesis returns as a
// *galois.PanicError.
func Build(m *npn.Manager, p Params) (*Library, error) {
	classes := m.Classes()
	lib := &Library{
		npn:     m,
		structs: make([][]Structure, len(classes)),
		big:     map[tt.Func64][]Structure{},
	}
	errs := make([]error, len(classes))
	team := galois.NewTeam(0)
	defer team.Close()
	workers, cur := team.Split(len(classes))
	if err := team.Do(workers, func(int) {
		b := newBuilder64(4)
		for lo, hi, ok := cur.Next(); ok; lo, hi, ok = cur.Next() {
			for _, cls := range classes[lo:hi] {
				lib.structs[cls.Index], errs[cls.Index] = b.synthesizeAll64(cls.Repr.Wide(), p.MaxPerClass)
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("rewlib: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rewlib: class %s: %w", classes[i].Repr, err)
		}
	}
	lib.rankPractical()
	return lib, nil
}

// Structures returns the forest of class cls, smallest structures first.
func (l *Library) Structures(cls int) []Structure { return l.structs[cls] }

// NPN returns the classification the library was built against.
func (l *Library) NPN() *npn.Manager { return l.npn }

// ForFunc returns the class index, the structures implementing the
// canonical form of f, and the inverse transform mapping structure inputs
// and output onto f's variables.
func (l *Library) ForFunc(f tt.Func16) (cls int, structs []Structure, inv npn.Transform) {
	cls = l.npn.ClassIndex(f)
	return cls, l.structs[cls], l.npn.FromCanon(f)
}

// PracticalClasses returns a class-index membership mask selecting the n
// classes whose minimal implementation is cheapest (fewest AND gates),
// ties broken by larger orbit. ABC's `rewrite` evaluates a practical
// subset of 134 of the 222 classes while `drw` uses all of them; cheap
// classes are the ones that actually occur in synthesized netlists
// (parities, majorities, simple control cones), so minimal structure cost
// is the natural reproduction of that subset.
func (l *Library) PracticalClasses(n int) []bool {
	mask := make([]bool, len(l.structs))
	for i := 0; i < n && i < len(l.practical); i++ {
		mask[l.practical[i]] = true
	}
	return mask
}

// rankPractical orders the classes for PracticalClasses: minimal
// structure cost, then orbit size descending, then index.
func (l *Library) rankPractical() {
	cost := func(cls int) int {
		if forest := l.structs[cls]; len(forest) > 0 {
			return forest[0].NumNodes() // forests are sorted by size
		}
		return 1 << 20
	}
	classes := l.npn.Classes()
	l.practical = make([]int, len(l.structs))
	for i := range l.practical {
		l.practical[i] = i
	}
	slices.SortFunc(l.practical, func(a, b int) int {
		if c := cmp.Compare(cost(a), cost(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(classes[b].Size, classes[a].Size); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// MaxStructures returns the largest per-class forest size, the bound a
// "use all structures" configuration effectively evaluates.
func (l *Library) MaxStructures() int {
	m := 0
	for _, s := range l.structs {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}
