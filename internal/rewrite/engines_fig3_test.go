package rewrite_test

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
	"dacpara/internal/rewrite"
)

func newRand() *rand.Rand { return rand.New(rand.NewSource(123)) }

// TestFig3CutStalenessDetection reproduces the hazard of the paper's
// Fig. 3: after a replacement deletes nodes and their IDs are reused for
// different logic, a stored cut that names those IDs is no longer a cut of
// the node — in structural form or in function — and the replacement
// stage must detect that instead of committing a wrong rewrite.
func TestFig3CutStalenessDetection(t *testing.T) {
	l := lib(t)
	a := aig.New()
	// Lower cone (like Fig. 3's nodes 1..4, 7..10): some logic n10 whose
	// rewriting will delete nodes and free IDs.
	x1, x2, x3, x4 := a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()
	x5 := a.AddPI()
	// n10 computes a 3-input redundant cone that rewriting collapses.
	n7 := a.And(x1, x2)
	n8 := a.And(n7, x3)
	n9 := a.And(n7, x3.Not())
	n10 := a.Or(n8, n9) // == n7: the whole cone is redundant
	// Upper cone (like Fig. 3's node 11) uses n10's MFFC members as cut
	// leaves.
	n11 := a.And(n10, a.And(x4, x5))
	a.AddPO(n11)

	cm := cut.NewManager(a, cut.Params{})
	ev := rewrite.NewEvaluator(a, l, rewrite.Config{})

	// Evaluate n11 first and hold its candidate (the prepInfo snapshot).
	cm.Ensure(n11.Node(), nil)
	cuts, _ := cm.Cuts(n11.Node())
	cand := ev.Evaluate(n11.Node(), cuts)

	// Now rewrite n10 (the transitive fanin): its redundant cone
	// collapses to n7, deleting nodes and freeing their IDs.
	cm.Ensure(n10.Node(), nil)
	cutsN10, _ := cm.Cuts(n10.Node())
	candN10 := ev.Evaluate(n10.Node(), cutsN10)
	if !candN10.Ok() {
		t.Fatal("the redundant cone must yield a candidate")
	}
	gain, st := ev.Execute(cm, &candN10, nil)
	if st != engine.StatusCommitted || gain <= 0 {
		t.Fatalf("n10 rewrite: %v gain=%d", st, gain)
	}

	// Reuse the freed IDs for unrelated logic (the red nodes of Fig. 3b).
	reused := a.And(x4.Not(), x5.Not())
	_ = a.And(reused, x1.Not())

	// Executing n11's stored candidate now must either commit a VALID
	// replacement (after re-validating on the latest graph) or skip as
	// stale — never corrupt the function.
	before := aig.RandomSignature(a, newRand(), 4)
	if cand.Ok() {
		_, st := ev.Execute(cm, &cand, nil)
		t.Logf("stored candidate outcome: %v", st)
	}
	after := aig.RandomSignature(a, newRand(), 4)
	if !slices.Equal(before, after) {
		t.Fatal("stale-cut execution corrupted the circuit")
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRootSkipped: a candidate whose root was itself rewritten away
// (ID possibly reused) must be skipped via the root version stamp.
func TestStaleRootSkipped(t *testing.T) {
	l := lib(t)
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	n7 := a.And(x, y)
	n8 := a.And(n7, z)
	n9 := a.And(n7, z.Not())
	root := a.Or(n8, n9) // redundant: == n7
	a.AddPO(root)

	cm := cut.NewManager(a, cut.Params{})
	ev := rewrite.NewEvaluator(a, l, rewrite.Config{})
	cm.Ensure(root.Node(), nil)
	cuts, _ := cm.Cuts(root.Node())
	cand := ev.Evaluate(root.Node(), cuts)
	if !cand.Ok() {
		t.Fatal("no candidate for the redundant root")
	}
	// Rewrite the root through another path first: replace it manually.
	a.Replace(root.Node(), n7, aig.ReplaceOptions{CascadeMerge: true})
	// Reuse the ID for different logic.
	fresh := a.And(x.Not(), z)
	if fresh.Node() != root.Node() {
		t.Skipf("allocator did not reuse ID %d", root.Node())
	}
	if _, st := ev.Execute(cm, &cand, nil); st != engine.StatusStale {
		t.Fatalf("stale root executed with status %v", st)
	}
}

func TestNodeDividing(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	l1 := a.And(x, y)        // level 1
	l2 := a.And(l1, z)       // level 2
	l3 := a.And(l2, x.Not()) // level 3
	o := a.And(x, z)         // level 1
	a.AddPO(l3)
	a.AddPO(o)
	lists := engine.ByLevel(a)
	if len(lists) != 3 {
		t.Fatalf("%d lists, want 3", len(lists))
	}
	if len(lists[0]) != 2 || len(lists[1]) != 1 || len(lists[2]) != 1 {
		t.Fatalf("list sizes %d/%d/%d", len(lists[0]), len(lists[1]), len(lists[2]))
	}
	// Within the initial division, nodes of one list share no
	// fanin/fanout relation (they have equal depth).
	for _, wl := range lists {
		for _, id := range wl {
			n := a.N(id)
			for _, other := range wl {
				if other == n.Fanin0().Node() || other == n.Fanin1().Node() {
					t.Fatal("same-level nodes must not be fanins of each other")
				}
			}
		}
	}
}
