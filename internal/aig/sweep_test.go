package aig_test

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"

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

// TestSweepSharedFanin sweeps a dead chain of ANDs that each also read
// one shared input, so that input's fanout list holds the whole chain.
// The sweep deletes the chain from its top, newest node first; finding
// each node from the front of that list made the sweep quadratic in the
// chain's length, some 170 times slower at this size than the plain
// dead chain of TestSweepDeadChain, and from the back it is linear. The
// test bounds the ratio of the two sweeps, not a time, so it holds on a
// slow machine and under the race detector.
func TestSweepSharedFanin(t *testing.T) {
	const length = 50_000
	chain := func(shared bool) *aig.AIG {
		a := aig.New()
		x, y := a.AddPI(), a.AddPI()
		a.AddPO(a.And(x, y))
		prev, top := x, a.And(x, y.Not())
		for range length - 1 {
			if shared {
				top = a.And(top.Not(), x)
			} else {
				prev, top = top, a.And(top, prev.Not())
			}
		}
		return a
	}
	// The best of three runs of each keeps a collection or a preemption
	// out of the ratio.
	sweep := func(shared bool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for range 3 {
			a := chain(shared)
			start := time.Now()
			if got := a.Sweep(); got != length {
				t.Fatalf("Sweep deleted %d ANDs, want %d", got, length)
			}
			best = min(best, time.Since(start))
			if err := a.Check(aig.CheckOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return best
	}
	plain, shared := sweep(false), sweep(true)
	if shared > 20*plain {
		t.Fatalf("sweeping the shared-fanin chain took %v, the plain chain %v", shared, plain)
	}
}

// TestSweepFolds: Sweep merges every AND whose fanin pair another AND
// already has, and the fanouts that merge makes equal, leaving a
// Check-clean graph with the same outputs. The duplicates come from a
// Replace without CascadeMerge, as a dacpara or iccad18 commit makes
// them.
func TestSweepFolds(t *testing.T) {
	t.Run("two pairs", func(t *testing.T) {
		a := aig.New()
		x, y, z, w := a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()
		p, q := a.And(x, y), a.And(x, z)
		// Once q is p, s repeats r's pair and v repeats u's.
		r, s := a.And(p, w), a.And(q, w)
		u, v := a.And(p, z), a.And(q, z)
		for _, l := range []aig.Lit{r, s, u, v} {
			a.AddPO(l)
		}
		a.Replace(q.Node(), p, aig.ReplaceOptions{})
		checkFold(t, a, 2, 3)
		if a.PO(0) != a.PO(1) || a.PO(2) != a.PO(3) {
			t.Fatalf("outputs %v: the folded pairs drive different literals", a.POs())
		}
	})
	t.Run("cascade", func(t *testing.T) {
		a := aig.New()
		x, y, z, w := a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()
		p, q := a.And(x, y), a.And(x, z)
		r, s := a.And(p, w), a.And(q, w)
		// r2 and s2 repeat a pair only once r and s are one node, and f,
		// which reads both, is then that node.
		r2, s2 := a.And(r, z), a.And(s, z)
		f := a.And(r, s)
		a.AddPO(r2)
		a.AddPO(s2)
		a.AddPO(a.And(a.And(f, y.Not()), w.Not()))
		a.Replace(q.Node(), p, aig.ReplaceOptions{})
		// Levels are current before the sweep. Folding f away lowers the
		// third output from level 5 to 4, and the node at level 4 below
		// it to 3, so the levels above the node the fold re-points go
		// stale.
		if d := a.Levelize(); d != 5 {
			t.Fatalf("delay %d before the sweep, want 5", d)
		}
		checkFold(t, a, 3, 5)
		if a.PO(0) != a.PO(1) {
			t.Fatalf("outputs %v: r2 and s2 were not merged", a.POs())
		}
		if d := a.Delay(); d != 4 {
			t.Fatalf("delay %d after the sweep, want 4", d)
		}
	})
	// A fold swap-removes an entry from a fanin's fanout list, which can
	// move the later of two twins ahead of the earlier one. The pair must
	// fold all the same, whichever twin the list names first on each
	// twin's turn.
	t.Run("reordered", func(t *testing.T) {
		a := aig.New()
		x, y, w, z, z1, p0, p1 := a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()
		r, v := a.And(x, y), a.And(x, w)
		f1t := a.And(v, z1)
		filler := a.And(p0, p1)
		f1 := a.And(r, z1)
		a.AddPO(f1t)
		a.AddPO(f1)
		// The filler's ID goes back to the free list, and A takes it: A's ID
		// is below f1's, but r's fanout list names f1 first.
		if got := a.Sweep(); got != 1 {
			t.Fatalf("Sweep deleted %d ANDs, want the filler only", got)
		}
		A := a.And(r, z)
		if A.Node() != filler.Node() {
			t.Fatalf("A has ID %d, want the filler's %d", A.Node(), filler.Node())
		}
		B := a.And(v, z)
		a.AddPO(A)
		a.AddPO(B)
		// z's list is longer than r's, so the twins on (r, z) are looked up
		// in r's list.
		for _, e := range []aig.Lit{p0, p1, w, y} {
			a.AddPO(a.And(z, e))
		}
		// With v gone, f1t and f1 are twins on (r, z1), and A and B on
		// (r, z); r's list is [f1 A f1t B]. Folding f1t swap-removes it.
		a.Replace(v.Node(), r, aig.ReplaceOptions{})
		checkFold(t, a, 2, 7)
		if a.PO(0) != a.PO(1) || a.PO(2) != a.PO(3) {
			t.Fatalf("outputs %v: the folded pairs drive different literals", a.POs())
		}
	})
}

// checkFold sweeps a and wants deleted ANDs gone, ands left, a clean
// graph and nothing for a second sweep.
func checkFold(t *testing.T, a *aig.AIG, deleted, ands int) {
	t.Helper()
	if a.Check(aig.CheckOptions{}) == nil {
		t.Fatal("the graph holds no duplicate pair to fold")
	}
	if got := a.Sweep(); got != deleted {
		t.Fatalf("Sweep deleted %d ANDs, want %d", got, deleted)
	}
	if a.NumAnds() != ands {
		t.Fatalf("%d ANDs after the sweep, want %d", a.NumAnds(), ands)
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := a.Sweep(); got != 0 {
		t.Fatalf("a second sweep deleted %d ANDs", got)
	}
}
