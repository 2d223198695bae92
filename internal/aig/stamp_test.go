package aig_test

import (
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/cut"
)

// TestMidMoveLeafReadsStale catches a leaf in the middle of a version
// change — holding the sentinel, its new version not yet drawn — which is
// what a lock-free reader in the fused engine can meet. Every cut over
// that leaf must read as stale, whatever its stamp, and every other cut
// stays fresh.
func TestMidMoveLeafReadsStale(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	g := a.And(x, y)
	r := a.And(g, z)
	a.AddPO(r)
	m := cut.NewManager(a, cut.Params{})
	m.Ensure(r.Node(), nil)
	cuts, _ := m.Cuts(r.Node())

	a.HoldMoving(g.Node())
	over := 0
	for i := range cuts {
		c := &cuts[i]
		if c.Contains(g.Node()) {
			over++
			if c.Fresh(a) {
				t.Fatalf("cut %v (stamp %d) over a leaf in mid-move passes Fresh", c.LeafSlice(), c.Stamp)
			}
		} else if !c.Fresh(a) {
			t.Fatalf("cut %v does not use the moving leaf and fails Fresh", c.LeafSlice())
		}
	}
	if over == 0 || over == len(cuts) {
		t.Fatalf("%d of %d cuts use the moving leaf; the test needs some of each", over, len(cuts))
	}
}
