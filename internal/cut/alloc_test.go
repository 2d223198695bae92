package cut

import (
	"math/rand"
	"testing"
)

// TestWarmEnumerationZeroAlloc pins the zero-allocation contract of the
// warm enumeration paths: once a manager has enumerated a graph and its
// pool scratch has grown to the sweep's working size, neither epoch
// revalidation (the persistent-cache fast path) nor a full recompute of
// unchanged sets (every entry invalidated, then re-ensured — the cold
// enumeration shape running against warm entry storage) may touch the
// heap. The bench-smoke CI job runs this test as its allocation gate.
func TestWarmEnumerationZeroAlloc(t *testing.T) {
	for _, shape := range faninShapes {
		t.Run(shape.name, func(t *testing.T) {
			a := shape.build()
			m := NewManager(a, Params{})
			pool := NewPool()
			visit := func(id int32) { m.EnsureP(id, nil, pool) }
			invalidate := func(id int32) { m.entry(id).state.Store(0) }
			a.ForEachAnd(visit)

			// Settle: one warm revalidation and one warm recompute so
			// entry slices and the pool scratch reach steady-state
			// capacity before measuring.
			m.NextEpoch()
			a.ForEachAnd(visit)
			a.ForEachAnd(invalidate)
			a.ForEachAnd(visit)

			if avg := testing.AllocsPerRun(10, func() {
				m.NextEpoch()
				a.ForEachAnd(visit)
			}); avg != 0 {
				t.Errorf("warm epoch revalidation: %v allocs/run, want 0", avg)
			}

			if avg := testing.AllocsPerRun(10, func() {
				a.ForEachAnd(invalidate)
				a.ForEachAnd(visit)
			}); avg != 0 {
				t.Errorf("warm recompute of unchanged sets: %v allocs/run, want 0", avg)
			}
		})
	}
}

// TestEpochReuseByteIdentity checks that the epoch-revalidation fast path
// hands back bit-identical cut sets: a manager revalidated across an
// epoch bump must serve exactly the sets a cold manager computes on the
// same graph, LeafVer stamps included.
func TestEpochReuseByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomAIG(rng, 16, 2000)

	warm := NewManager(a, Params{})
	pool := NewPool()
	a.ForEachAnd(func(id int32) { warm.EnsureP(id, nil, pool) })
	warm.NextEpoch()
	a.ForEachAnd(func(id int32) { warm.EnsureP(id, nil, pool) })

	cold := NewManager(a, Params{})
	a.ForEachAnd(func(id int32) { cold.Ensure(id, nil) })

	a.ForEachAnd(func(id int32) {
		ws, wok := warm.Cuts(id)
		cs, cok := cold.Cuts(id)
		if wok != cok || len(ws) != len(cs) {
			t.Fatalf("node %d: set shape differs (warm ok=%v n=%d, cold ok=%v n=%d)",
				id, wok, len(ws), cok, len(cs))
		}
		for i := range ws {
			if ws[i] != cs[i] {
				t.Fatalf("node %d cut %d differs:\nwarm %+v\ncold %+v", id, i, ws[i], cs[i])
			}
		}
	})
}
