package aig

import (
	"math/rand"
	"slices"
	"testing"
)

// buildDiamond creates f = (x&y) & (x&z), g = (x&y) & w and a PO on each,
// a small network with sharing for replacement tests.
func buildDiamond(t *testing.T) (a *AIG, x, y, z, w Lit, xy, xz, f, g Lit) {
	t.Helper()
	a = New()
	x, y, z, w = a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()
	xy = a.And(x, y)
	xz = a.And(x, z)
	f = a.And(xy, xz)
	g = a.And(xy, w)
	a.AddPO(f)
	a.AddPO(g)
	return
}

func TestReplaceRedirectsPOs(t *testing.T) {
	a, x, y, _, _, _, _, f, _ := buildDiamond(t)
	_ = y
	// Replace f's node by literal x: PO 0 must point at x afterwards.
	a.Replace(f.Node(), x, ReplaceOptions{CascadeMerge: true})
	if a.PO(0) != x {
		t.Fatalf("PO 0 is %v, want %v", a.PO(0), x)
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	// The exclusive cone of f (node xz) must be gone; xy survives via g.
	if a.NumAnds() != 2 { // xy and g
		t.Fatalf("area %d, want 2", a.NumAnds())
	}
}

func TestReplacePreservesComplementPhases(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	l := a.And(x, y)
	a.AddPO(l.Not()) // complemented PO
	a.Replace(l.Node(), x, ReplaceOptions{})
	if a.PO(0) != x.Not() {
		t.Fatalf("PO phase lost: %v", a.PO(0))
	}
}

func TestReplaceWithComplementedLiteral(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	l := a.And(x, y)
	top := a.And(l, z)
	a.AddPO(top)
	// Replace l by !x: top becomes AND(!x, z).
	a.Replace(l.Node(), x.Not(), ReplaceOptions{})
	n := a.NodeOf(a.PO(0))
	got0, got1 := n.Fanin0(), n.Fanin1()
	if !(got0 == x.Not() && got1 == z || got0 == z && got1 == x.Not()) {
		t.Fatalf("fanins %v %v", got0, got1)
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceCascadeMerge(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	xy := a.And(x, y)
	d := a.And(x, z) // will be rewritten to equal xy's pair
	top1 := a.And(xy, z)
	top2 := a.And(d, z)
	a.AddPO(top1)
	a.AddPO(top2)
	// Replace d's node by xy's literal: top2's fanin pair becomes
	// (xy, z), a duplicate of top1 — cascade merging must fold them.
	a.Replace(d.Node(), xy, ReplaceOptions{CascadeMerge: true})
	if a.PO(0) != a.PO(1) {
		t.Fatalf("cascade merge did not unify POs: %v vs %v", a.PO(0), a.PO(1))
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.NumAnds() != 2 { // xy and one top
		t.Fatalf("area %d, want 2", a.NumAnds())
	}
}

func TestReplaceWithoutCascadeLeavesDuplicates(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	xy := a.And(x, y)
	d := a.And(x, z)
	top1 := a.And(xy, z)
	top2 := a.And(d, z)
	a.AddPO(top1)
	a.AddPO(top2)
	a.Replace(d.Node(), xy, ReplaceOptions{CascadeMerge: false})
	// Duplicates allowed: strash uniqueness is waived, everything else
	// must hold.
	if err := a.Check(CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	if err := a.Check(CheckOptions{}); err == nil {
		t.Fatal("expected duplicate pair without cascade merging")
	}
}

func TestReplaceByConstantCollapses(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	xy := a.And(x, y)
	top := a.And(xy, z)
	a.AddPO(top)
	// xy -> const1 makes top = AND(1, z) = z.
	a.Replace(xy.Node(), LitTrue, ReplaceOptions{CascadeMerge: true})
	if a.PO(0) != z {
		t.Fatalf("PO %v, want %v", a.PO(0), z)
	}
	if a.NumAnds() != 0 {
		t.Fatalf("area %d, want 0", a.NumAnds())
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceByConstFalseCascade(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	xy := a.And(x, y)
	top := a.And(xy, z)
	upper := a.And(top, x)
	a.AddPO(upper)
	// xy -> const0 collapses the whole cone to const0.
	a.Replace(xy.Node(), LitFalse, ReplaceOptions{CascadeMerge: true})
	if a.PO(0) != LitFalse {
		t.Fatalf("PO %v, want const0", a.PO(0))
	}
	if a.NumAnds() != 0 {
		t.Fatalf("area %d", a.NumAnds())
	}
}

func TestReplaceComplementCancellation(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	u := a.And(x, y)
	v := a.And(u, z)       // AND(u, z)
	w := a.And(u.Not(), z) // AND(!u, z)
	a.AddPO(v)
	a.AddPO(w)
	// Replace z's... instead: replace u by z: v = AND(z,z) = z,
	// w = AND(!z, z) = const0.
	a.Replace(u.Node(), z, ReplaceOptions{CascadeMerge: true})
	if a.PO(0) != z {
		t.Fatalf("PO0 %v, want z", a.PO(0))
	}
	if a.PO(1) != LitFalse {
		t.Fatalf("PO1 %v, want const0", a.PO(1))
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceKeepsFunction(t *testing.T) {
	// Property: replacing a node with a freshly built equivalent cone
	// preserves all PO functions.
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		a := randomNetwork(t, rng, 6, 120, 6)
		before := RandomSignature(a, rand.New(rand.NewSource(2)), 4)
		// Pick a random AND node and rebuild it as AND(f1, f0) through
		// fresh equivalent logic: AND(x, y) == !(!x | !y) == MUX(x, y, 0).
		var ands []int32
		a.ForEachAnd(func(id int32) { ands = append(ands, id) })
		id := ands[rng.Intn(len(ands))]
		n := a.N(id)
		f0, f1 := n.Fanin0(), n.Fanin1()
		// Build the equivalent via a mux: careful to avoid looking up the
		// same node — Mux introduces different structure.
		equiv := a.Mux(f0, f1, LitFalse)
		if equiv.Node() == id {
			continue // strash folded it back; nothing to test
		}
		a.Replace(id, equiv, ReplaceOptions{CascadeMerge: true})
		if err := a.Check(CheckOptions{}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		after := RandomSignature(a, rand.New(rand.NewSource(2)), 4)
		if !slices.Equal(before, after) {
			t.Fatalf("iter %d: function changed", iter)
		}
	}
}

func TestDerefRefConeRoundTrip(t *testing.T) {
	a, _, _, _, _, xy, xz, f, _ := buildDiamond(t)
	_ = xy
	_ = xz
	leaves := map[int32]bool{}
	for _, pi := range a.PIs() {
		leaves[pi] = true
	}
	isLeaf := func(id int32) bool { return leaves[id] }
	refsBefore := snapshotRefs(a)
	// f's MFFC above the PIs is {f, xz}: xy is shared with g.
	if got := a.DerefCone(f.Node(), isLeaf); got != 2 {
		t.Fatalf("MFFC size %d, want 2", got)
	}
	if got := a.RefCone(f.Node(), isLeaf); got != 2 {
		t.Fatalf("RefCone count %d, want 2", got)
	}
	if !equalRefs(refsBefore, snapshotRefs(a)) {
		t.Fatal("Deref/Ref round trip changed reference counts")
	}
}

func snapshotRefs(a *AIG) []int32 {
	out := make([]int32, a.Capacity())
	for i := range out {
		out[i] = a.N(int32(i)).Ref()
	}
	return out
}

func equalRefs(x, y []int32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestCheckDetectsCorruption(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	l := a.And(x, y)
	a.AddPO(l)
	// Corrupt a reference count.
	a.NodeOf(l).refAdd(1)
	if err := a.Check(CheckOptions{}); err == nil {
		t.Fatal("Check missed a wrong reference count")
	}
	a.NodeOf(l).refAdd(-1)
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatalf("restored network still flagged: %v", err)
	}
}
