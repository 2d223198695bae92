// Semi-canonical NPN classification for 5- and 6-input functions.
//
// Exact NPN canonicalization of the 4-variable space is a one-time table
// build (npn.Manager); the 6-variable space has 2^64 functions, so the
// large-cut evaluate loop uses a semi-canonical form instead: a
// representative that is invariant under input permutation/negation and
// output negation, computed by enumerating only the transforms a set of
// orbit-invariant feasibility conditions leaves open.
//
// The conditions constrain the RESULT table h, never the search path:
//
//	(a) h has at most as many ones as zeros (output negation),
//	(b) for every variable, the positive half of h has at least as many
//	    ones as the negative half (input negation),
//	(c) the per-variable one-counts of h ascend with the variable index
//	    (input permutation).
//
// SemiCanon returns the numerically smallest table among the candidates
// satisfying (a)-(c). Because the conditions depend only on the candidate
// table, the feasible set — and hence its minimum — is a function of the
// NPN orbit alone, which gives the invariance property
// SemiCanon(T(f)) == SemiCanon(f) for every transform T. Ties in any
// condition branch into all options, so symmetric functions (parities,
// majorities) enumerate more candidates; a per-worker SemiCache amortizes
// them. Functions whose support fits in four variables delegate to the
// exact Manager, so semi-canonical and full canonicalization agree on the
// entire 4-variable space.
package npn

import (
	"math/bits"

	"dacpara/internal/tt"
)

// SemiCanon returns the semi-canonical representative of f's NPN orbit
// and a transform t with t.Apply(f) == repr. The representative is
// invariant under input permutation/negation and output negation. When
// f's support fits in four variables the exact 4-variable classification
// is used, so SemiCanon agrees with Manager.Canon on the whole widened
// 4-variable space.
func SemiCanon(f tt.Func64) (tt.Func64, Transform) {
	if bits.OnesCount(f.Support()) <= 4 {
		return semiCanonNarrow(f)
	}
	return semiCanonWide(f)
}

// semiCanonNarrow compacts the (at most four) support variables into
// x0..x3 and delegates to the exact 4-variable Manager.
func semiCanonNarrow(f tt.Func64) (tt.Func64, Transform) {
	// Compaction permutation: support variables first in ascending order,
	// then the rest ascending. This choice is orbit-consistent because it
	// is a function of the support set alone.
	sup := f.Support()
	pack := Identity
	n := uint8(0)
	for v := uint8(0); v < 6; v++ {
		if sup>>v&1 == 1 {
			// f-variable v lands at packed position n (Apply reads
			// result variable Perm[v] for source variable v).
			pack.Perm[v] = n
			n++
		}
	}
	for v := uint8(0); v < 6; v++ {
		if sup>>v&1 == 0 {
			pack.Perm[v] = n
			n++
		}
	}
	packed := pack.Apply(f)
	m := Shared()
	f16 := packed.Narrow16()
	return m.Canon(f16).Wide(), Compose(m.ToCanon(f16), pack)
}

// semiCanonWide runs the constrained enumeration for functions with five
// or six support variables.
func semiCanonWide(f tt.Func64) (tt.Func64, Transform) {
	best := tt.True64
	bestT := Identity
	first := true

	total := f.Ones()
	negOpts := negOptions(total)
	for _, neg := range negOpts {
		g := f
		if neg {
			g = f.Not()
		}
		gOnes := g.Ones()

		// Per-variable one-counts of the positive/negative halves of g.
		// Flipping one variable or permuting variables does not change
		// another variable's pair of counts, so the choices below are
		// independent.
		var pos, key [6]int
		var flipChoices [6][]uint8
		for v := 0; v < 6; v++ {
			pos[v] = (g & tt.Vars64[v]).Ones()
			negc := gOnes - pos[v]
			switch {
			case pos[v] > negc:
				flipChoices[v] = flipKeep
			case pos[v] < negc:
				flipChoices[v] = flipOnly
			case g.DependsOn(v):
				// Balanced and dependent: both phases satisfy (b) but
				// produce different tables — branch.
				flipChoices[v] = flipBoth
			default:
				// The variable is outside the support; flipping is a
				// no-op on the table.
				flipChoices[v] = flipKeep
			}
			key[v] = maxInt(pos[v], negc)
		}

		// Orders satisfying (c): ascending keys, all arrangements within
		// equal-key blocks.
		orders := tieOrders(key)

		var flips []uint8
		flips = enumFlips(flipChoices, flips)
		for _, flip := range flips {
			for _, ord := range orders {
				var t Transform
				t.Flip = flip
				t.Neg = neg
				for w, v := range ord {
					// f-variable v lands at result position w.
					t.Perm[v] = uint8(w)
				}
				h := t.Apply(f)
				if first || h < best {
					best, bestT, first = h, t, false
				}
			}
		}
	}
	return best, bestT
}

var (
	flipKeep = []uint8{0}
	flipOnly = []uint8{1}
	flipBoth = []uint8{0, 1}
)

func negOptions(total int) []bool {
	switch {
	case 2*total < 64:
		return []bool{false}
	case 2*total > 64:
		return []bool{true}
	default:
		return []bool{false, true}
	}
}

// enumFlips expands the per-variable phase choices into concrete flip
// masks.
func enumFlips(choices [6][]uint8, out []uint8) []uint8 {
	out = append(out[:0], 0)
	for v := 0; v < 6; v++ {
		if len(choices[v]) == 1 && choices[v][0] == 0 {
			continue
		}
		cur := len(out)
		for i := 0; i < cur; i++ {
			base := out[i]
			out[i] = base | choices[v][0]<<uint(v)
			for _, c := range choices[v][1:] {
				out = append(out, base|c<<uint(v))
			}
		}
	}
	return out
}

// tieOrders returns every ordering of the variables with ascending keys:
// the sorted order, with all permutations inside equal-key blocks.
func tieOrders(key [6]int) [][6]int {
	var sorted [6]int
	for i := range sorted {
		sorted[i] = i
	}
	for i := 1; i < 6; i++ {
		for j := i; j > 0 && key[sorted[j]] < key[sorted[j-1]]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := [][6]int{sorted}
	i := 0
	for i < 6 {
		j := i + 1
		for j < 6 && key[sorted[j]] == key[sorted[i]] {
			j++
		}
		if j-i > 1 {
			out = permuteBlock(out, i, j)
		}
		i = j
	}
	return out
}

// permuteBlock expands each ordering in the list into every permutation
// of its [lo,hi) block.
func permuteBlock(in [][6]int, lo, hi int) [][6]int {
	var out [][6]int
	var rec func(ord [6]int, i int)
	rec = func(ord [6]int, i int) {
		if i == hi {
			out = append(out, ord)
			return
		}
		for j := i; j < hi; j++ {
			next := ord
			next[i], next[j] = next[j], next[i]
			rec(next, i+1)
		}
	}
	for _, ord := range in {
		rec(ord, lo)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SemiCache memoizes SemiCanon results. It is not safe for concurrent
// use; each evaluation worker owns one.
type SemiCache struct {
	m map[tt.Func64]semiEntry
}

type semiEntry struct {
	repr tt.Func64
	t    Transform
}

// NewSemiCache allocates an empty cache.
func NewSemiCache() *SemiCache {
	return &SemiCache{m: make(map[tt.Func64]semiEntry, 256)}
}

// Canon returns SemiCanon(f), computing and caching it on first use.
func (c *SemiCache) Canon(f tt.Func64) (tt.Func64, Transform) {
	if e, ok := c.m[f]; ok {
		return e.repr, e.t
	}
	repr, t := SemiCanon(f)
	c.m[f] = semiEntry{repr, t}
	return repr, t
}
