// Package tt implements truth-table arithmetic for Boolean functions of up
// to six variables, the function domain of cut rewriting at every
// supported width (k = 4..6).
//
// A function is stored as a Func64: one 64-bit word holds the complete
// truth table over x0..x5, bit i being f(x5,...,x0) with
// i = x5<<5 | ... | x0. A function of fewer variables is stored over the
// same 64-row domain and simply does not depend on the upper variables,
// so every connective, cofactor, flip and swap is a few word operations
// whatever the cut width. This is the function type carried by cuts
// (internal/cut), classified by NPN matching (internal/npn) and
// decomposed into structures by the library builder (internal/rewlib).
// Covers (ISOP) live in internal/bigtt, which serves every table size.
//
// Func16 is the 16-bit table of a function of x0..x3. It has no algebra
// of its own: it exists as the dense index of the exact 4-variable NPN
// table and widens to a Func64 for everything else.
package tt

import (
	"fmt"
	"math/bits"
)

// Func16 is the truth table of a function over x0..x3 in 16 bits: bit i
// holds f(x3,x2,x1,x0) where i = x3<<3 | x2<<2 | x1<<1 | x0.
type Func16 uint16

// The 4-variable tables of the variables and constants.
const (
	Var0  Func16 = 0xAAAA // x0
	Var1  Func16 = 0xCCCC // x1
	Var2  Func16 = 0xF0F0 // x2
	Var3  Func16 = 0xFF00 // x3
	False Func16 = 0x0000
	True  Func16 = 0xFFFF
)

// Wide widens a 4-variable table to the 6-variable domain: the result
// computes the same function and does not depend on x4 or x5.
func (f Func16) Wide() Func64 {
	w := uint64(f)
	return Func64(w | w<<16 | w<<32 | w<<48)
}

// String renders f as a 4-digit hexadecimal constant, the conventional
// notation for 4-variable truth tables.
func (f Func16) String() string { return fmt.Sprintf("0x%04X", uint16(f)) }

// MaxVars64 is the variable capacity of a Func64 — the ceiling of
// large-cut rewriting (k <= 6).
const MaxVars64 = 6

// Func64 is a complete truth table over the six variables x0..x5: bit i
// holds f(x5,...,x0) where i = x5<<5 | ... | x0.
type Func64 uint64

// Truth tables of the six variables and the constants.
const (
	False64 Func64 = 0
	True64  Func64 = ^Func64(0)
)

// Vars64 lists the variable truth tables indexed by variable number.
var Vars64 = [6]Func64{
	0xAAAAAAAAAAAAAAAA, // x0
	0xCCCCCCCCCCCCCCCC, // x1
	0xF0F0F0F0F0F0F0F0, // x2
	0xFF00FF00FF00FF00, // x3
	0xFFFF0000FFFF0000, // x4
	0xFFFFFFFF00000000, // x5
}

// Var64 returns the truth table of variable v (0..5). It panics if v is
// out of range; callers index cuts whose width is already validated.
func Var64(v int) Func64 { return Vars64[v] }

// Narrow16 projects a table back to the 4-variable domain. It is exact
// only when f does not depend on x4 and x5 (the invariant every table
// built from Var64(0..3) maintains).
func (f Func64) Narrow16() Func16 { return Func16(f) }

// Not returns the complement of f.
func (f Func64) Not() Func64 { return ^f }

// And returns the conjunction of f and g.
func (f Func64) And(g Func64) Func64 { return f & g }

// Or returns the disjunction of f and g.
func (f Func64) Or(g Func64) Func64 { return f | g }

// Xor returns the exclusive-or of f and g.
func (f Func64) Xor(g Func64) Func64 { return f ^ g }

// Ones reports the number of satisfying assignments over the 64-row
// domain. For a function of k < 6 variables the count is scaled by
// 2^(6-k) — consistently for every table, so comparisons stay valid.
func (f Func64) Ones() int { return bits.OnesCount64(uint64(f)) }

// IsConst reports whether f is constant true or false.
func (f Func64) IsConst() bool { return f == False64 || f == True64 }

var cofShift64 = [6]uint{1, 2, 4, 8, 16, 32}

// Cofactor0 returns the negative cofactor of f with respect to variable
// v, expanded back over the full domain so that it no longer depends on
// v.
func (f Func64) Cofactor0(v int) Func64 {
	low := f &^ Vars64[v]
	return low | low<<cofShift64[v]
}

// Cofactor1 returns the positive cofactor of f with respect to variable
// v.
func (f Func64) Cofactor1(v int) Func64 {
	high := f & Vars64[v]
	return high | high>>cofShift64[v]
}

// DependsOn reports whether f depends on variable v.
func (f Func64) DependsOn(v int) bool { return f.Cofactor0(v) != f.Cofactor1(v) }

// Support returns a bitmask of the variables f depends on.
func (f Func64) Support() uint {
	var s uint
	for v := 0; v < MaxVars64; v++ {
		if f.DependsOn(v) {
			s |= 1 << uint(v)
		}
	}
	return s
}

// FlipVar returns f with variable v complemented.
func (f Func64) FlipVar(v int) Func64 {
	low := f &^ Vars64[v]
	high := f & Vars64[v]
	return low<<cofShift64[v] | high>>cofShift64[v]
}

// SwapVars returns f with variables a < b exchanged: the rows on which
// the two differ trade places, (1<<b)-(1<<a) rows apart, and every other
// row stays. It is the step cut merging re-expresses a function with
// (one swap per variable that moves), so it is three masked shifts and
// no loop.
func (f Func64) SwapVars(a, b int) Func64 {
	up := Vars64[a] &^ Vars64[b] // rows with x_a = 1, x_b = 0
	sh := cofShift64[b] - cofShift64[a]
	return f&^(up|up<<sh) | (f&up)<<sh | (f>>sh)&up
}

// PermuteVars returns f with its variables renamed according to perm:
// variable v of the result behaves as variable perm[v] of f. perm must
// be a permutation of {0..5}.
func (f Func64) PermuteVars(perm [6]int) Func64 {
	var out Func64
	for row := uint(0); row < 64; row++ {
		src := uint(0)
		for v := 0; v < MaxVars64; v++ {
			src |= (row >> uint(v) & 1) << uint(perm[v])
		}
		out |= Func64(uint64(f)>>src&1) << row
	}
	return out
}

// Eval evaluates f on the assignment encoded in the low six bits of in.
func (f Func64) Eval(in uint) bool { return f>>(in&63)&1 == 1 }

// String renders f as a 16-digit hexadecimal constant.
func (f Func64) String() string { return fmt.Sprintf("0x%016X", uint64(f)) }

// IsXorDecomposable reports whether f = x_v XOR g for some g independent
// of v, returning g.
func (f Func64) IsXorDecomposable(v int) (Func64, bool) {
	c0 := f.Cofactor0(v)
	c1 := f.Cofactor1(v)
	if c0 == c1.Not() {
		return c0, true
	}
	return 0, false
}
