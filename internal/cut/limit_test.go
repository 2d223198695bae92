package cut

import (
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/tt"
)

// TestParamsMaxCutsResolution pins the width and cut-limit resolution: K
// clamps to the supported range 4..MaxK, the widths a stored cut has a
// stride for, and is the manager's K; an explicit MaxCuts from the
// configuration always wins; otherwise the limit is the width-derived
// default.
func TestParamsMaxCutsResolution(t *testing.T) {
	cases := []struct {
		p       Params
		k, want int
	}{
		{Params{}, 4, 54},                    // zero value: classic width, ABC budget
		{Params{K: 4}, 4, 54},                // explicit classic width
		{Params{K: 5}, 5, 24},                // width 5 default
		{Params{K: 6}, 6, 12},                // width 6 default
		{Params{K: 99}, 6, 12},               // K clamps to MaxK before the lookup
		{Params{K: 1}, 4, 54},                // ...and K below 4 up to the classic width,
		{Params{K: 3}, 4, 54},                // which has a stride
		{Params{K: -1}, 4, 54},               // negative K falls back to classic
		{Params{MaxCuts: 8}, 4, 8},           // config overrides the default...
		{Params{K: 6, MaxCuts: 8}, 6, 8},     // ...at every width
		{Params{K: 5, MaxCuts: 200}, 5, 200}, // even above the default
		{Params{K: 5, MaxCuts: -3}, 5, 24},   // non-positive config means default
	}
	for _, c := range cases {
		if got := c.p.maxCuts(); got != c.want {
			t.Errorf("Params%+v.maxCuts() = %d, want %d", c.p, got, c.want)
		}
		if got := NewManager(aig.New(), c.p).K(); got != c.k {
			t.Errorf("NewManager(Params%+v).K() = %d, want %d", c.p, got, c.k)
		}
	}
	for k := 1; k <= 4; k++ {
		if got := DefaultCutLimit(k); got != 54 {
			t.Errorf("DefaultCutLimit(%d) = %d, want 54", k, got)
		}
	}
	if got := DefaultCutLimit(5); got != 24 {
		t.Errorf("DefaultCutLimit(5) = %d, want 24", got)
	}
	for k := 6; k <= 8; k++ {
		if got := DefaultCutLimit(k); got != 12 {
			t.Errorf("DefaultCutLimit(%d) = %d, want 12", k, got)
		}
	}
}

// cutOver builds a cut over the given leaves with an arbitrary function
// restricted to the cut width (the AND of the leaves).
func cutOver(leaves ...int32) Cut {
	f := tt.True64
	for i := range leaves {
		f = f.And(tt.Var64(i))
	}
	return NewCut(leaves, f)
}

// TestAddCutDominancePruningAtLimit drives addCut on sets filled right
// up to the width-5 and width-6 budgets: a dominated insert must bounce
// off a full set without growing it, and a dominating insert must sweep
// out every superset in one call, landing the set back under the limit
// without the caller's overflow eviction firing.
func TestAddCutDominancePruningAtLimit(t *testing.T) {
	for _, k := range []int{5, 6} {
		limit := DefaultCutLimit(k)
		set := []Cut{NewCut([]int32{1000}, tt.Var64(0))} // trivial cut
		// Fill to exactly the limit with pairwise-incomparable cuts of
		// width k: {base, base+1, ..., base+k-1} windows over distinct
		// ranges never contain one another.
		for i := 0; i < limit; i++ {
			base := int32(1 + i*k)
			leaves := make([]int32, k)
			for j := range leaves {
				leaves[j] = base + int32(j)
			}
			if !addCut(&set, cutOver(leaves...)) {
				t.Fatalf("k=%d: incomparable cut %d rejected while filling", k, i)
			}
		}
		if got := len(set) - 1; got != limit {
			t.Fatalf("k=%d: filled set holds %d cuts, want %d", k, got, limit)
		}
		// A cut with the same leaves as a stored one is dominated
		// (dominance includes equality): rejected, set untouched even
		// though it is full.
		dupLeaves := make([]int32, k)
		for j := range dupLeaves {
			dupLeaves[j] = 1 + int32(j)
		}
		if addCut(&set, cutOver(dupLeaves...)) {
			t.Fatalf("k=%d: dominated cut accepted into a full set", k)
		}
		if got := len(set) - 1; got != limit {
			t.Fatalf("k=%d: rejected insert changed the set: %d cuts", k, got)
		}
		// A narrow cut dominating the first three stored windows (it is a
		// subset of none, but {1} is contained in window 0 only — build
		// one leaf per window so it dominates nothing, then a true
		// dominator): first check a fresh incomparable insert overflows
		// the budget by exactly one, which is the caller's job to fix.
		before := len(set)
		fresh := cutOver(5000, 5001, 5002)
		if !addCut(&set, fresh) {
			t.Fatalf("k=%d: incomparable cut rejected", k)
		}
		if len(set) != before+1 {
			t.Fatalf("k=%d: addCut enforced the budget itself (%d -> %d); eviction is the merge loop's job",
				k, before, len(set))
		}
		set = set[:before] // undo the overflow probe
		// {1} is a subset of window 0 ({1..k}) and of nothing else: the
		// dominator evicts exactly that window and takes its place.
		dom := cutOver(1)
		if !addCut(&set, dom) {
			t.Fatalf("k=%d: dominating cut rejected", k)
		}
		if got := len(set) - 1; got != limit {
			t.Fatalf("k=%d: dominator swap changed the count: %d cuts, want %d", k, got, limit)
		}
		for i := 1; i < len(set); i++ {
			if set[i].Contains(1) && set[i].Size != 1 {
				t.Fatalf("k=%d: dominated window survived: %v", k, set[i].LeafSlice())
			}
		}
		// The empty (constant) cut dominates every cut at once: the set
		// collapses far below the limit in one insert.
		super := NewCut(nil, tt.True64)
		if !addCut(&set, super) {
			t.Fatalf("k=%d: universal dominator rejected", k)
		}
		if got := len(set) - 1; got != 1 {
			t.Fatalf("k=%d: universal dominator left %d cuts, want 1", k, got)
		}
	}
}

// TestManagerHonoursBudgetAndWidthWide re-runs the classic budget and
// width-bound invariants through the Manager at the large widths with a
// configured (non-default) cut limit: every stored set stays within the
// configured budget, no stored cut exceeds the width, and no stored pair
// is dominance-redundant.
func TestManagerHonoursBudgetAndWidthWide(t *testing.T) {
	for _, k := range []int{5, 6} {
		const maxCuts = 6
		rng := rand.New(rand.NewSource(int64(77 + k)))
		a := randomAIG(rng, 10, 400)
		m := NewManager(a, Params{K: k, MaxCuts: maxCuts})
		if m.K() != k {
			t.Fatalf("Manager.K() = %d, want %d", m.K(), k)
		}
		a.ForEachAnd(func(id int32) {
			cuts := ensured(m, id)
			if len(cuts)-1 > maxCuts {
				t.Fatalf("k=%d node %d: %d cuts stored, budget %d", k, id, len(cuts)-1, maxCuts)
			}
			for i := range cuts {
				if int(cuts[i].Size) > k {
					t.Fatalf("k=%d node %d: cut wider than %d: %v", k, id, k, cuts[i].LeafSlice())
				}
			}
			for i := 1; i < len(cuts); i++ {
				for j := 1; j < len(cuts); j++ {
					if i != j && cuts[i].dominates(&cuts[j]) {
						t.Fatalf("k=%d node %d: dominated pair stored", k, id)
					}
				}
			}
		})
	}
}
