// Package bigtt implements truth tables over up to 16 variables, the
// function domain of large-cone refactoring (the tt package's Func64
// stops at the six variables of cut rewriting), and the repository's one
// irredundant sum-of-products cover (Scratch.Cover, ISOP): refactoring
// factors it for cones of any size, and the structure-library builder
// (internal/rewlib) for the 4- to 6-variable class functions.
//
// A table stores 2^n function bits in 64-bit words. Variables below 6
// live inside each word as repeating bit patterns; variables 6 and above
// select word blocks. A table of fewer than six variables uses the low
// 2^n bits of its only word.
package bigtt

import (
	"fmt"
	"math/bits"
)

// MaxVars bounds the supported variable count.
const MaxVars = 16

// TT is a truth table over a fixed number of variables.
type TT struct {
	nvars int
	words []uint64
}

// wordPatterns are the in-word masks of variables 0..5.
var wordPatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// NumWords returns the word count of a table over nvars variables.
func NumWords(nvars int) int {
	if nvars <= 6 {
		return 1
	}
	return 1 << (nvars - 6)
}

// WordMask returns the used bits of a table's words: all 64 from six
// variables up, the low 2^nvars of the only word below.
func WordMask(nvars int) uint64 {
	if nvars >= 6 {
		return ^uint64(0)
	}
	return 1<<(1<<nvars) - 1
}

// New returns the constant-false table over nvars variables.
func New(nvars int) TT {
	if nvars < 0 || nvars > MaxVars {
		panic(fmt.Sprintf("bigtt: %d variables unsupported", nvars))
	}
	return TT{nvars: nvars, words: make([]uint64, NumWords(nvars))}
}

// Make wraps NumWords(nvars) caller-owned words as a table; the table
// aliases them. The Set methods write through such a table in place.
func Make(nvars int, words []uint64) TT {
	if len(words) != NumWords(nvars) {
		panic(fmt.Sprintf("bigtt: %d words for %d variables", len(words), nvars))
	}
	return TT{nvars: nvars, words: words}
}

// Words returns the table's words, aliased.
func (t TT) Words() []uint64 { return t.words }

// Const returns a constant table.
func Const(nvars int, v bool) TT {
	t := New(nvars)
	if v {
		fill(t.words, WordMask(nvars))
	}
	return t
}

func fill(w []uint64, x uint64) {
	for i := range w {
		w[i] = x
	}
}

// Var returns the table of variable v.
func Var(nvars, v int) TT {
	t := New(nvars)
	t.SetVar(v)
	return t
}

// SetVar overwrites t with the table of variable v.
func (t TT) SetVar(v int) {
	if v < 0 || v >= t.nvars {
		panic(fmt.Sprintf("bigtt: variable %d of %d", v, t.nvars))
	}
	if v < 6 {
		fill(t.words, wordPatterns[v]&WordMask(t.nvars))
		return
	}
	block := 1 << (v - 6)
	for i := range t.words {
		t.words[i] = -uint64(i / block & 1)
	}
}

// SetAnd overwrites t with the conjunction of a and b, each complemented
// first when its flag is set. t may alias either operand.
func (t TT) SetAnd(a TT, na bool, b TT, nb bool) {
	t.check(a)
	t.check(b)
	// x ^ full complements within the used bits, x ^ 0 is x.
	var ma, mb uint64
	if na {
		ma = WordMask(t.nvars)
	}
	if nb {
		mb = WordMask(t.nvars)
	}
	for i := range t.words {
		t.words[i] = (a.words[i] ^ ma) & (b.words[i] ^ mb)
	}
}

// SetNot overwrites t with the complement of u. t may alias u.
func (t TT) SetNot(u TT) {
	t.check(u)
	full := WordMask(t.nvars)
	for i := range t.words {
		t.words[i] = u.words[i] ^ full
	}
}

// NumVars returns the variable count.
func (t TT) NumVars() int { return t.nvars }

func (t TT) check(u TT) {
	if t.nvars != u.nvars {
		panic("bigtt: mixed variable counts")
	}
}

// And returns t & u.
func (t TT) And(u TT) TT {
	out := New(t.nvars)
	out.SetAnd(t, false, u, false)
	return out
}

// Or returns t | u.
func (t TT) Or(u TT) TT {
	t.check(u)
	out := New(t.nvars)
	for i := range out.words {
		out.words[i] = t.words[i] | u.words[i]
	}
	return out
}

// Xor returns t ^ u.
func (t TT) Xor(u TT) TT {
	t.check(u)
	out := New(t.nvars)
	for i := range out.words {
		out.words[i] = t.words[i] ^ u.words[i]
	}
	return out
}

// Not returns the complement.
func (t TT) Not() TT {
	out := New(t.nvars)
	out.SetNot(t)
	return out
}

// AndNot returns t &^ u.
func (t TT) AndNot(u TT) TT {
	out := New(t.nvars)
	out.SetAnd(t, false, u, true)
	return out
}

// Equal reports table equality.
func (t TT) Equal(u TT) bool {
	t.check(u)
	for i := range t.words {
		if t.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// IsConst0 reports whether t is constant false.
func (t TT) IsConst0() bool { return allEqual(t.words, 0) }

// IsConst1 reports whether t is constant true.
func (t TT) IsConst1() bool { return allEqual(t.words, WordMask(t.nvars)) }

func allEqual(w []uint64, x uint64) bool {
	for _, y := range w {
		if y != x {
			return false
		}
	}
	return true
}

// EqualNot reports whether t is the complement of u.
func (t TT) EqualNot(u TT) bool {
	t.check(u)
	full := WordMask(t.nvars)
	for i := range t.words {
		if t.words[i]^u.words[i] != full {
			return false
		}
	}
	return true
}

// Ones counts satisfying assignments.
func (t TT) Ones() int {
	n := 0
	for _, w := range t.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Eval returns the function bit for the assignment in row.
func (t TT) Eval(row uint) bool {
	return t.words[row>>6]>>(row&63)&1 == 1
}

// DependsOn reports whether t depends on variable v.
func (t TT) DependsOn(v int) bool { return dependsOn(t.words, v) }

// dependsOn compares the two cofactors of variable v where they lie: in
// the two halves of every aligned 2^(v-6)-word block pair, or shifted
// against each other inside every word.
func dependsOn(w []uint64, v int) bool {
	if v < 6 {
		for _, x := range w {
			if wordDependsOn(x, v) {
				return true
			}
		}
		return false
	}
	block := 1 << (v - 6)
	for i := 0; i < len(w); i += 2 * block {
		for j := i; j < i+block; j++ {
			if w[j] != w[j+block] {
				return true
			}
		}
	}
	return false
}

func wordDependsOn(x uint64, v int) bool {
	return (x>>(1<<v)^x)&^wordPatterns[v] != 0
}

// Clone returns a copy.
func (t TT) Clone() TT {
	out := New(t.nvars)
	copy(out.words, t.words)
	return out
}

// String renders the table as hex words (most significant first).
func (t TT) String() string {
	s := ""
	for i := len(t.words) - 1; i >= 0; i-- {
		s += fmt.Sprintf("%016x", t.words[i])
	}
	return "0x" + s
}

// Cube is a product term: Lits is the mask of participating variables,
// Phase their polarities (bit set = positive).
type Cube struct {
	Lits  uint32
	Phase uint32
}

// Table expands the cube over nvars variables.
func (c Cube) Table(nvars int) TT {
	t := Const(nvars, true)
	for v := 0; v < nvars; v++ {
		if c.Lits>>uint(v)&1 == 0 {
			continue
		}
		lit := Var(nvars, v)
		if c.Phase>>uint(v)&1 == 0 {
			lit = lit.Not()
		}
		t = t.And(lit)
	}
	return t
}

// ISOP computes an irredundant sum-of-products cover of some g with
// on ⊆ g ⊆ on|dc (Minato–Morreale), returning the cover and its table.
func ISOP(on, dc TT) ([]Cube, TT) {
	var s Scratch
	return s.Cover(on, on.Or(dc))
}

// CoverTable returns the union table of a cover.
func CoverTable(nvars int, cover []Cube) TT {
	t := New(nvars)
	for _, c := range cover {
		t = t.Or(c.Table(nvars))
	}
	return t
}
