package rewrite

import (
	"testing"

	"dacpara/internal/aig"
)

// TestReplaceSimMatchesReplace: the overlay rehearsal must predict the
// exact deletion count of the real Replace.
func TestReplaceSimMatchesReplace(t *testing.T) {
	build := func() (*aig.AIG, int32, aig.Lit) {
		a := aig.New()
		x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
		xy := a.And(x, y)
		inner := a.And(xy, z)
		top := a.And(inner, x.Not())
		a.AddPO(top)
		a.AddPO(xy) // xy shared: survives inner's deletion
		return a, inner.Node(), xy
	}
	a, victim, repl := build()
	sim := newReplaceSim(a, nil, NewScratch())
	deleted, ok, conflict := sim.run(victim, repl, false)
	if !ok || conflict {
		t.Fatalf("sim failed: ok=%v conflict=%v", ok, conflict)
	}
	before := a.NumAnds()
	a.Replace(victim, repl, aig.ReplaceOptions{})
	actual := before - a.NumAnds()
	if deleted != actual {
		t.Fatalf("sim predicted %d deletions, actual %d", deleted, actual)
	}
	if err := a.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
}

// TestReplaceSimPOOnly: a victim feeding only primary outputs.
func TestReplaceSimPOOnly(t *testing.T) {
	a := aig.New()
	x, y := a.AddPI(), a.AddPI()
	v := a.And(x, y)
	a.AddPO(v)
	a.AddPO(v.Not())
	sim := newReplaceSim(a, nil, NewScratch())
	deleted, ok, conflict := sim.run(v.Node(), x, false)
	if !ok || conflict {
		t.Fatal("sim failed")
	}
	if deleted != 1 {
		t.Fatalf("predicted %d deletions, want 1", deleted)
	}
}

// TestReplaceSimTrivialCascade: replacement literal that cancels inside a
// fanout (AND(v, x) with v := !x) must cascade in the rehearsal exactly
// as in Replace.
func TestReplaceSimTrivialCascade(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	v := a.And(y, z)
	f := a.And(v, x) // will become AND(!x, x) = const0
	top := a.And(f, y)
	a.AddPO(top)
	sim := newReplaceSim(a, nil, NewScratch())
	deleted, ok, conflict := sim.run(v.Node(), x.Not(), false)
	if !ok || conflict {
		t.Fatal("sim failed")
	}
	before := a.NumAnds()
	a.Replace(v.Node(), x.Not(), aig.ReplaceOptions{})
	actual := before - a.NumAnds()
	if deleted != actual {
		t.Fatalf("sim predicted %d, actual %d", deleted, actual)
	}
	if a.PO(0) != aig.LitFalse {
		t.Fatalf("PO %v, want const0", a.PO(0))
	}
}

// TestReplaceSimBudget: a victim with an enormous fanout exceeds the plan
// limit and must be rejected (ok=false) instead of locking the world.
func TestReplaceSimBudget(t *testing.T) {
	a := aig.New()
	x, y := a.AddPI(), a.AddPI()
	v := a.And(x, y)
	for i := 0; i < planLimit+10; i++ {
		pi := a.AddPI()
		a.AddPO(a.And(v, pi))
	}
	sim := newReplaceSim(a, nil, NewScratch())
	_, ok, conflict := sim.run(v.Node(), x, false)
	if conflict {
		t.Fatal("unexpected conflict")
	}
	if ok {
		t.Fatal("plan limit not enforced")
	}
}

// TestReplaceSimConflictPropagates: a denied lock inside the rehearsal
// surfaces as a conflict.
func TestReplaceSimConflictPropagates(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	v := a.And(x, y)
	top := a.And(v, z)
	a.AddPO(top)
	denied := top.Node()
	sim := newReplaceSim(a, func(id int32) bool { return id != denied }, NewScratch())
	_, ok, conflict := sim.run(v.Node(), x, false)
	if ok || !conflict {
		t.Fatalf("expected conflict, got ok=%v conflict=%v", ok, conflict)
	}
}
