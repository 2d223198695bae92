package cut

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dacpara/internal/tt"
)

// ks are the cut widths the parameterized properties run at.
var ks = []int{4, 5, 6}

// randomCutFrom draws a sorted distinct leaf set of the given size from
// the universe and a random function restricted to those leaves (real
// cut functions never depend on variables beyond their width; Cofactor0
// projects the extra variables away like enumeration does).
func randomCutFrom(rng *rand.Rand, universe []int32, size int) Cut {
	perm := rng.Perm(len(universe))
	leaves := make([]int32, size)
	for i := 0; i < size; i++ {
		leaves[i] = universe[perm[i]]
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	f := tt.Func64(rng.Uint64())
	for v := size; v < MaxK; v++ {
		f = f.Cofactor0(v)
	}
	return NewCut(leaves, f)
}

// naiveMergeTT computes the conjunction of two (possibly complemented)
// cut functions over the union leaf set row by row, straight from the
// definition: each union row fixes every leaf, each cut reads its own
// leaves out of that assignment.
func naiveMergeTT(c0, c1 *Cut, n0, n1 bool, union []int32) tt.Func64 {
	leafRow := func(c *Cut, row uint) uint {
		var in uint
		for i, l := range c.LeafSlice() {
			for j, u := range union {
				if u == l {
					in |= (row >> uint(j) & 1) << uint(i)
				}
			}
		}
		return in
	}
	// Cut tables are full 64-row tables that simply ignore variables
	// beyond the cut width, so the reference fills all 64 rows; bits of
	// the row index beyond the union size never reach either cut.
	var out tt.Func64
	for row := uint(0); row < 64; row++ {
		v0 := c0.TT.Eval(leafRow(c0, row)) != n0
		v1 := c1.TT.Eval(leafRow(c1, row)) != n1
		if v0 && v1 {
			out |= 1 << row
		}
	}
	return out
}

func leafUnion(c0, c1 *Cut) []int32 {
	seen := map[int32]bool{}
	var u []int32
	for _, c := range []*Cut{c0, c1} {
		for _, l := range c.LeafSlice() {
			if !seen[l] {
				seen[l] = true
				u = append(u, l)
			}
		}
	}
	sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
	return u
}

// TestMergeCutsMatchesNaive quick-checks mergeCuts against the
// definitional reference at every supported width: it must succeed
// exactly when the union leaf set is k-feasible (in particular the
// signature quick-reject may never fire on a feasible pair, even when
// distinct leaves collide mod 64), and on success produce the sorted
// union and the exact conjunction.
func TestMergeCutsMatchesNaive(t *testing.T) {
	for _, k := range ks {
		rng := rand.New(rand.NewSource(271))
		// Leaf IDs beyond 64 force signature-bit collisions (id mod 64),
		// the case where the quick-reject must stay conservative.
		universe := []int32{2, 3, 5, 8, 13, 21, 66, 67, 69, 130, 131, 194}
		for iter := 0; iter < 10000; iter++ {
			c0 := randomCutFrom(rng, universe, 1+rng.Intn(k))
			c1 := randomCutFrom(rng, universe, 1+rng.Intn(k))
			n0, n1 := rng.Intn(2) == 0, rng.Intn(2) == 0
			union := leafUnion(&c0, &c1)
			merged, ok := mergeCuts(&c0, &c1, n0, n1, k)
			if feasible := len(union) <= k; ok != feasible {
				t.Fatalf("k=%d: mergeCuts ok=%v for union %v (|union|=%d)", k, ok, union, len(union))
			}
			if ref, refOK := refMergeCuts(&c0, &c1, n0, n1, k); ok != refOK || merged != ref {
				t.Fatalf("k=%d: merged %+v (ok=%v), the old kernel gives %+v (ok=%v)", k, merged, ok, ref, refOK)
			}
			if !ok {
				continue
			}
			if !equalLeaves(merged.LeafSlice(), union) {
				t.Fatalf("k=%d: merged leaves %v, want sorted union %v", k, merged.LeafSlice(), union)
			}
			if want := naiveMergeTT(&c0, &c1, n0, n1, union); merged.TT != want {
				t.Fatalf("k=%d: merged TT %v, want %v (c0=%v%v c1=%v%v)",
					k, merged.TT, want, c0.LeafSlice(), c0.TT, c1.LeafSlice(), c1.TT)
			}
		}
	}
}

func naiveDominates(c, d *Cut) bool {
	for _, l := range c.LeafSlice() {
		found := false
		for _, m := range d.LeafSlice() {
			if m == l {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestDominatesMatchesNaive quick-checks the signature-accelerated
// subset test against the plain definition at every width.
func TestDominatesMatchesNaive(t *testing.T) {
	for _, k := range ks {
		rng := rand.New(rand.NewSource(907))
		universe := []int32{1, 4, 7, 65, 68, 71, 129, 132}
		for iter := 0; iter < 10000; iter++ {
			c := randomCutFrom(rng, universe, 1+rng.Intn(k))
			d := randomCutFrom(rng, universe, 1+rng.Intn(k))
			// Bias toward genuine subsets, which pure random sampling
			// rarely hits: sometimes rebuild c from a subset of d's leaves.
			if rng.Intn(2) == 0 {
				sz := 1 + rng.Intn(int(d.Size))
				c = randomCutFrom(rng, d.LeafSlice(), sz)
			}
			if got, want := c.dominates(&d), naiveDominates(&c, &d); got != want {
				t.Fatalf("k=%d: dominates(%v, %v) = %v, want %v", k, c.LeafSlice(), d.LeafSlice(), got, want)
			}
		}
	}
}

// TestAddCutInvariants quick-checks the filtered insertion at every
// width: the trivial cut at index 0 is never disturbed, the stored set
// never contains a dominated pair, a rejected cut really was dominated,
// and an accepted cut really ends up stored.
func TestAddCutInvariants(t *testing.T) {
	for _, k := range ks {
		rng := rand.New(rand.NewSource(613))
		universe := []int32{3, 6, 9, 12, 70, 73, 76, 140, 201, 77}
		for iter := 0; iter < 1000; iter++ {
			trivial := NewCut([]int32{999}, tt.Var64(0))
			set := []Cut{trivial}
			for n := 0; n < 12; n++ {
				c := randomCutFrom(rng, universe, 1+rng.Intn(k))
				before := append([]Cut(nil), set...)
				wasDominated := false
				for j := 1; j < len(before); j++ {
					if naiveDominates(&before[j], &c) {
						wasDominated = true
					}
				}
				refSet := append([]Cut(nil), set...)
				refAdded := refAddCut(&refSet, c)
				added := addCut(&set, c)
				if added != refAdded || !slices.Equal(set, refSet) {
					t.Fatalf("k=%d: dominance first keeps %+v (added=%v), the old order %+v (added=%v)",
						k, set, added, refSet, refAdded)
				}
				if added == wasDominated {
					t.Fatalf("k=%d: addCut=%v but cut %v dominated=%v in %d-cut set",
						k, added, c.LeafSlice(), wasDominated, len(before))
				}
				if !set[0].SameLeaves(&trivial) {
					t.Fatalf("k=%d: trivial cut disturbed: %v", k, set[0].LeafSlice())
				}
				if !added {
					if len(set) != len(before) {
						t.Fatalf("k=%d: rejected insert changed the set size %d -> %d", k, len(before), len(set))
					}
					continue
				}
				if last := &set[len(set)-1]; !last.SameLeaves(&c) {
					t.Fatalf("k=%d: accepted cut not stored: %v", k, c.LeafSlice())
				}
				// Every dropped cut must have been dominated by c; every
				// kept cut must not be.
				for j := 1; j < len(before); j++ {
					kept := false
					for i := 1; i < len(set); i++ {
						if set[i].SameLeaves(&before[j]) {
							kept = true
						}
					}
					if kept == naiveDominates(&c, &before[j]) {
						t.Fatalf("k=%d: cut %v kept=%v though dominated-by-new=%v",
							k, before[j].LeafSlice(), kept, !kept)
					}
				}
				for i := 1; i < len(set); i++ {
					for j := 1; j < len(set); j++ {
						if i != j && set[i].dominates(&set[j]) {
							t.Fatalf("k=%d: stored set holds dominated pair %v <= %v",
								k, set[i].LeafSlice(), set[j].LeafSlice())
						}
					}
				}
			}
		}
	}
}

// TestSignatureNeverFalselyRejects pins the soundness argument of the
// quick-reject in mergeCuts: the signature ORs one bit per leaf, so its
// popcount never exceeds the true union size. Exhaustively over small
// leaf sets with forced collisions, a feasible merge must never fail at
// any width.
func TestSignatureNeverFalselyRejects(t *testing.T) {
	// Pairs of IDs congruent mod 64 share a signature bit.
	ids := []int32{10, 74, 138, 11, 75, 12, 76, 13}
	for _, k := range ks {
		for mask0 := 1; mask0 < 1<<uint(len(ids)); mask0++ {
			for mask1 := 1; mask1 < 1<<uint(len(ids)); mask1++ {
				var l0, l1 []int32
				for i, id := range ids {
					if mask0>>uint(i)&1 == 1 {
						l0 = append(l0, id)
					}
					if mask1>>uint(i)&1 == 1 {
						l1 = append(l1, id)
					}
				}
				if len(l0) > k || len(l1) > k {
					continue
				}
				sort.Slice(l0, func(i, j int) bool { return l0[i] < l0[j] })
				sort.Slice(l1, func(i, j int) bool { return l1[i] < l1[j] })
				c0 := NewCut(l0, tt.True64)
				c1 := NewCut(l1, tt.True64)
				union := leafUnion(&c0, &c1)
				_, ok := mergeCuts(&c0, &c1, false, false, k)
				if feasible := len(union) <= k; ok != feasible {
					t.Fatalf("k=%d: leaves %v + %v: ok=%v, feasible=%v", k, l0, l1, ok, feasible)
				}
			}
		}
	}
}
