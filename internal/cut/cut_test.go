package cut

import (
	"math/rand"
	"sort"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/tt"
)

// ensured enumerates node id with no visitor and returns its set.
func ensured(m *Manager, id int32) []Cut {
	m.Ensure(id, nil)
	cuts, _ := m.Cuts(id)
	return cuts
}

func TestTrivialCutsOfSources(t *testing.T) {
	a := aig.New()
	x := a.AddPI()
	m := NewManager(a, Params{})
	ok := m.Ensure(0, nil)
	cuts, _ := m.Cuts(0)
	if !ok || len(cuts) != 1 || cuts[0].Size != 0 || cuts[0].TT != tt.False64 {
		t.Fatalf("constant cut set wrong: %+v", cuts)
	}
	ok = m.Ensure(x.Node(), nil)
	cuts, _ = m.Cuts(x.Node())
	if !ok || len(cuts) != 1 || cuts[0].Size != 1 || cuts[0].TT != tt.Var64(0) {
		t.Fatalf("PI cut set wrong: %+v", cuts)
	}
}

func TestCutEnumerationKnownTree(t *testing.T) {
	// f = (a&b) & (c&d): the 4-cut {a,b,c,d} must appear with the AND4
	// truth table, as must intermediate cuts.
	a := aig.New()
	in := []aig.Lit{a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()}
	ab := a.And(in[0], in[1])
	cd := a.And(in[2], in[3])
	f := a.And(ab, cd)
	a.AddPO(f)
	m := NewManager(a, Params{})
	cuts := ensured(m, f.Node())
	if cuts[0].Size != 1 || cuts[0].Leaves[0] != f.Node() {
		t.Fatal("first cut must be trivial")
	}
	want4 := []int32{in[0].Node(), in[1].Node(), in[2].Node(), in[3].Node()}
	sort.Slice(want4, func(i, j int) bool { return want4[i] < want4[j] })
	found := false
	for i := range cuts {
		c := &cuts[i]
		if int(c.Size) == 4 && equalLeaves(c.LeafSlice(), want4) {
			found = true
			// Verify the function: AND of all four leaves in leaf order.
			want := tt.Var64(0).And(tt.Var64(1)).And(tt.Var64(2)).And(tt.Var64(3))
			if c.TT != want {
				t.Fatalf("AND4 cut function %v, want %v", c.TT, want)
			}
		}
	}
	if !found {
		t.Fatalf("4-cut over the PIs missing: %+v", cuts)
	}
}

func equalLeaves(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCutFunctionsMatchSimulation is the central soundness property: for
// every enumerated cut, evaluating the cut function on the leaves'
// simulated values must reproduce the node's simulated value.
func TestCutFunctionsMatchSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 5; iter++ {
		a := randomAIG(rng, 8, 300)
		sim := aig.NewSimulator(a)
		pi := make([]uint64, a.NumPIs())
		for i := range pi {
			pi[i] = rng.Uint64()
		}
		sim.Run(pi)
		vals := make(map[int32]uint64)
		vals[0] = 0
		for i, p := range a.PIs() {
			vals[p] = pi[i]
		}
		for _, id := range a.TopoOrder(nil) {
			n := a.N(id)
			if !n.IsAnd() {
				continue
			}
			v0 := vals[n.Fanin0().Node()]
			if n.Fanin0().Compl() {
				v0 = ^v0
			}
			v1 := vals[n.Fanin1().Node()]
			if n.Fanin1().Compl() {
				v1 = ^v1
			}
			vals[id] = v0 & v1
		}
		m := NewManager(a, Params{})
		a.ForEachAnd(func(id int32) {
			cuts := ensured(m, id)
			for ci := range cuts {
				c := &cuts[ci]
				// Evaluate the cut function bit-parallel over the leaves.
				var out uint64
				for bit := 0; bit < 64; bit++ {
					row := uint(0)
					for li, leaf := range c.LeafSlice() {
						row |= uint(vals[leaf]>>uint(bit)&1) << uint(li)
					}
					if c.TT.Eval(row) {
						out |= 1 << uint(bit)
					}
				}
				if out != vals[id] {
					t.Fatalf("node %d cut %v: function mismatch", id, c.LeafSlice())
				}
			}
		})
	}
}

func randomAIG(rng *rand.Rand, pis, gates int) *aig.AIG {
	a := aig.New()
	lits := make([]aig.Lit, 0, pis+gates)
	for i := 0; i < pis; i++ {
		lits = append(lits, a.AddPI())
	}
	for a.NumAnds() < gates {
		x := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		l := a.And(x, y)
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	a.AddPO(lits[len(lits)-1])
	return a
}

func TestCutWidthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomAIG(rng, 10, 400)
	m := NewManager(a, Params{})
	a.ForEachAnd(func(id int32) {
		cuts := ensured(m, id)
		for i := range cuts {
			if cuts[i].Size > K {
				t.Fatalf("cut wider than %d", K)
			}
		}
	})
}

func TestMaxCutsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomAIG(rng, 10, 400)
	m := NewManager(a, Params{MaxCuts: 8})
	a.ForEachAnd(func(id int32) {
		cuts := ensured(m, id)
		// Budget excludes the trivial cut.
		if len(cuts) > 9 {
			t.Fatalf("node %d stores %d cuts, budget 8", id, len(cuts)-1)
		}
	})
}

func TestDominatedCutsFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := randomAIG(rng, 8, 200)
	m := NewManager(a, Params{})
	a.ForEachAnd(func(id int32) {
		cuts := ensured(m, id)
		for i := 1; i < len(cuts); i++ {
			for j := 1; j < len(cuts); j++ {
				if i != j && cuts[i].dominates(&cuts[j]) {
					t.Fatalf("node %d: cut %d dominates stored cut %d", id, i, j)
				}
			}
		}
	})
}

func TestFreshnessTracksVersions(t *testing.T) {
	a := aig.New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	xy := a.And(x, y)
	f := a.And(xy, z)
	a.AddPO(f)
	m := NewManager(a, Params{})
	cuts := ensured(m, f.Node())
	// Find the cut using xy as a leaf.
	var withXY *Cut
	for i := range cuts {
		if cuts[i].Contains(xy.Node()) {
			withXY = &cuts[i]
			break
		}
	}
	if withXY == nil {
		t.Fatal("no cut with xy as leaf")
	}
	if !withXY.Fresh(a) {
		t.Fatal("cut must be fresh before any change")
	}
	// Delete xy (replace by constant): the cut goes stale.
	a.Replace(xy.Node(), aig.LitTrue, aig.ReplaceOptions{CascadeMerge: true})
	if withXY.Fresh(a) {
		t.Fatal("cut with deleted leaf still fresh")
	}
	// Re-create a node in the freed slot (the Fig. 3 ID-reuse hazard):
	// freshness must still fail because the version moved on.
	nl := a.And(x, z.Not())
	if nl.Node() != xy.Node() {
		t.Skipf("allocator did not reuse the ID (got %d)", nl.Node())
	}
	if withXY.Fresh(a) {
		t.Fatal("cut fresh despite leaf ID reuse")
	}
}

func TestEnsureRecomputesForNewIncarnation(t *testing.T) {
	a := aig.New()
	x := a.AddPI()
	y := a.AddPI()
	l := a.And(x, y)
	a.AddPO(l)
	m := NewManager(a, Params{})
	first := ensured(m, l.Node())
	if len(first) == 0 {
		t.Fatal("no cuts")
	}
	id := l.Node()
	a.Replace(id, x, aig.ReplaceOptions{})
	// Reuse the slot with different logic.
	nl := a.And(x.Not(), y)
	if nl.Node() != id {
		t.Skip("allocator did not reuse the ID")
	}
	if _, ok := m.Cuts(id); ok {
		t.Fatal("stale entry served for a new incarnation")
	}
	second := ensured(m, id)
	if len(second) < 2 {
		t.Fatalf("re-enumeration failed: %+v", second)
	}
	// The fresh trivial cut must carry the new version.
	if !second[0].Fresh(a) {
		t.Fatal("recomputed cuts not fresh")
	}
}

func TestRefreshForcesRecomputation(t *testing.T) {
	a := aig.New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	xy := a.And(x, y)
	f := a.And(xy, z)
	a.AddPO(f)
	a.AddPO(xy)
	m := NewManager(a, Params{})
	m.Ensure(f.Node(), nil)
	// Rewrite below f: xy gets replaced by a different node (x|y shares
	// no structure), leaving f's stored cuts partially stale.
	repl := a.Or(x, y)
	a.Replace(xy.Node(), repl, aig.ReplaceOptions{CascadeMerge: true})
	if !m.RefreshP(f.Node(), nil, nil) {
		t.Fatal("refresh failed")
	}
	fresh, _ := m.Cuts(f.Node())
	for i := range fresh {
		if !fresh[i].Fresh(a) {
			t.Fatalf("refreshed set contains stale cut %v", fresh[i].LeafSlice())
		}
	}
}

func TestVisitorAbortsEnumeration(t *testing.T) {
	a := aig.New()
	x := a.AddPI()
	y := a.AddPI()
	l := a.And(x, y)
	a.AddPO(l)
	m := NewManager(a, Params{})
	calls := 0
	ok := m.Ensure(l.Node(), func(id int32) bool {
		calls++
		return calls < 2 // fail on the second visited node
	})
	if ok {
		t.Fatal("enumeration must abort when the visitor refuses")
	}
}
