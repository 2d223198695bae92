package aig_test

import (
	"runtime/debug"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

// TestSweep deletes a dead cone that shares a node with live logic and a
// second dead root: the cones go, the shared node, the inputs and the
// output stay, the next And reuses a freed ID, and a second sweep finds
// nothing.
func TestSweep(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	xy := a.And(x, y)
	out := a.And(xy, z)
	a.AddPO(out.Not())
	d1 := a.And(x.Not(), z)
	d2 := a.And(d1, xy.Not()) // dead, over a dead and a live node
	d3 := a.And(y, z.Not())   // dead, alone
	dead := []int32{d1.Node(), d2.Node(), d3.Node()}

	if got := a.Sweep(); got != 3 {
		t.Fatalf("Sweep deleted %d ANDs, want 3", got)
	}
	for _, id := range dead {
		if !a.N(id).IsDead() {
			t.Fatalf("dead AND %d survived the sweep", id)
		}
	}
	for _, l := range []aig.Lit{xy, out} {
		if !a.N(l.Node()).IsAnd() {
			t.Fatalf("live AND %d was deleted", l.Node())
		}
	}
	if a.NumAnds() != 2 || a.NumPIs() != 3 || a.NumPOs() != 1 || a.PO(0) != out.Not() {
		t.Fatalf("after the sweep: %v, PO %v", a.Stats(), a.PO(0))
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := a.And(x, z); !slices.Contains(dead, n.Node()) {
		t.Fatalf("the next And took ID %d, not a freed one of %v", n.Node(), dead)
	}
	a.AddPO(a.And(x, z))
	if got := a.Sweep(); got != 0 {
		t.Fatalf("a second sweep deleted %d ANDs", got)
	}
}

// TestSweepLiveGraph: on a graph with no dead logic Sweep deletes
// nothing and leaves the structure and the levels as they were.
func TestSweepLiveGraph(t *testing.T) {
	a := bench.Sqrt(16)
	digest, stats := aig.StructuralDigest(a), a.Stats()
	if got := a.Sweep(); got != 0 {
		t.Fatalf("Sweep deleted %d ANDs of a live graph", got)
	}
	if aig.StructuralDigest(a) != digest || a.Stats() != stats || a.Levelize() != stats.Delay {
		t.Fatalf("Sweep changed a live graph: %v, was %v", a.Stats(), stats)
	}
}

// TestSweepDeadChain sweeps a chain of ANDs, each over the two before it,
// whose top nothing references, under a 1 MB stack limit: the sweep
// reaches the chain only through its top, and deleting it must not cost
// call depth in its length (a goroutine past the limit is a fatal error,
// not a panic, and would end a service process). No node has more than
// two fanouts, so the fanout-list edits stay cheap.
func TestSweepDeadChain(t *testing.T) {
	const length = 100_000
	a := aig.New()
	x, y := a.AddPI(), a.AddPI()
	a.AddPO(a.And(x, y))
	prev, chain := x, a.And(x, y.Not())
	for range length - 1 {
		prev, chain = chain, a.And(chain, prev.Not())
	}
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	if got := a.Sweep(); got != length {
		t.Fatalf("Sweep deleted %d ANDs, want %d", got, length)
	}
	if a.NumAnds() != 1 {
		t.Fatalf("after the sweep: %v", a.Stats())
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}
