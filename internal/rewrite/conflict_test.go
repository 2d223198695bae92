package rewrite

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/rewlib"
)

type rewlibLibrary = rewlib.Library

// buildWithCandidate builds a deterministic random graph for the seed and
// locates the first committable candidate.
func buildWithCandidate(t *testing.T, lib *rewlibLibrary, seed int64) (*aig.AIG, *cut.Manager, *Evaluator, Candidate) {
	t.Helper()
	a := randomAIG(t, rand.New(rand.NewSource(seed)), 8, 300, 6)
	cm := cut.NewManager(a, cut.Params{})
	ev := NewEvaluator(a, lib, Config{})
	for _, id := range a.TopoOrder(nil) {
		if !a.N(id).IsAnd() {
			continue
		}
		cuts, _ := cm.Ensure(id, nil)
		c := ev.Evaluate(id, cuts)
		if c.Ok() {
			return a, cm, ev, c
		}
	}
	return a, cm, ev, Candidate{}
}

// TestConflictAbortLeavesGraphUntouched is the cautious-operator
// invariant that makes Galois-style speculation sound: if ANY lock
// acquisition during Execute fails — at whichever point in validation,
// planning or pre-commit — the graph must be completely unmodified. The
// test sweeps the failure point across every acquisition the replacement
// makes.
func TestConflictAbortLeavesGraphUntouched(t *testing.T) {
	lib := testLib(t)
	for seed := int64(0); seed < 6; seed++ {
		// Count acquisitions of a successful run on a fresh copy.
		a, cm, ev, cand := buildWithCandidate(t, lib, seed)
		if !cand.Ok() {
			continue
		}
		total := 0
		area := a.NumAnds()
		if _, st := ev.Execute(cm, &cand, func(id int32) bool { total++; return true }); st == StatusConflict {
			t.Fatal("all-grant locker conflicted")
		}
		if a.NumAnds() == area {
			continue // candidate skipped on re-evaluation; try next seed
		}
		// Re-run from an identical graph, failing acquisition k.
		for fail := 1; fail <= total; fail++ {
			b, cmB, evB, candB := buildWithCandidate(t, lib, seed)
			if !candB.Ok() {
				t.Fatal("deterministic rebuild lost the candidate")
			}
			before := aig.RandomSignature(b, rand.New(rand.NewSource(1)), 2)
			areaB := b.NumAnds()
			capB := b.Capacity()
			n := 0
			_, st := evB.Execute(cmB, &candB, func(id int32) bool {
				n++
				return n != fail
			})
			if st != StatusConflict {
				// Later acquisitions may not be reached on other code
				// paths; whatever happened must still be sound.
				if err := b.Check(aig.CheckOptions{}); err != nil {
					t.Fatalf("seed %d fail@%d (%v): %v", seed, fail, st, err)
				}
				continue
			}
			if b.NumAnds() != areaB {
				t.Fatalf("seed %d fail@%d: area changed %d -> %d", seed, fail, areaB, b.NumAnds())
			}
			if b.Capacity() != capB {
				t.Fatalf("seed %d fail@%d: capacity changed", seed, fail)
			}
			after := aig.RandomSignature(b, rand.New(rand.NewSource(1)), 2)
			if !slices.Equal(before, after) {
				t.Fatalf("seed %d fail@%d: function changed on abort", seed, fail)
			}
			if err := b.Check(aig.CheckOptions{}); err != nil {
				t.Fatalf("seed %d fail@%d: %v", seed, fail, err)
			}
		}
	}
}
