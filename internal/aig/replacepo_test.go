package aig

import "testing"

func TestReplacePO(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	l := a.And(x, y)
	k := a.AddPO(l)
	if k != 0 {
		t.Fatalf("PO index %d", k)
	}
	// Redirect the PO to a new cone: the old one dies.
	m := a.And(x, y.Not())
	a.ReplacePO(0, m.Not())
	if a.PO(0) != m.Not() {
		t.Fatalf("PO %v", a.PO(0))
	}
	if a.NodeOf(l).Kind() != KindFree {
		t.Fatal("orphaned cone not deleted")
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	// Same-literal redirect is a no-op.
	a.ReplacePO(0, m.Not())
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatorAfterGrowth(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	a.AddPO(a.And(x, y))
	sim := NewSimulator(a)
	out := sim.Run([]uint64{0b11, 0b01})
	if out[0]&0b11 != 0b01 {
		t.Fatalf("and = %b", out[0]&0b11)
	}
	// Grow the graph, rebuild the simulator, and re-run.
	z := a.AddPI()
	a.AddPO(a.Xor(x, z))
	sim = NewSimulator(a)
	out = sim.Run([]uint64{0b11, 0b01, 0b10})
	if out[1]&0b11 != 0b01 {
		t.Fatalf("xor = %b", out[1]&0b11)
	}
}
