package cut

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestWarmEnumerationZeroAlloc pins the zero-allocation contract of warm
// enumeration: once a manager has enumerated a graph and its pool scratch
// has grown to the sweep's working size, a full recompute after NextEpoch
// (the cold enumeration shape running against warm entry storage) may not
// touch the heap. The bench-smoke CI job runs this test as its allocation
// gate.
func TestWarmEnumerationZeroAlloc(t *testing.T) {
	for _, shape := range faninShapes {
		t.Run(shape.name, func(t *testing.T) {
			a := shape.build()
			m := NewManager(a, Params{})
			pool := NewPool()
			visit := func(id int32) { m.EnsureP(id, nil, pool) }
			a.ForEachAnd(visit)

			// Settle: one warm recompute so entry slices and the pool
			// scratch reach steady-state capacity before measuring.
			m.NextEpoch()
			a.ForEachAnd(visit)

			if avg := testing.AllocsPerRun(10, func() {
				m.NextEpoch()
				a.ForEachAnd(visit)
			}); avg != 0 {
				t.Errorf("warm recompute after NextEpoch: %v allocs/run, want 0", avg)
			}
		})
	}
}

// TestEntrySize pins a cut table entry, one per node of every pass, at a
// state word and a slice header on 64-bit platforms.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); unsafe.Sizeof(uintptr(0)) == 8 && got != 32 {
		t.Fatalf("a cut entry takes %d bytes, want 32", got)
	}
}

// TestCutSize pins a cut at 48 bytes: six leaves, one stamp, the size, the
// function and the signature. Every stored set is a run of these.
func TestCutSize(t *testing.T) {
	if got := unsafe.Sizeof(Cut{}); got != 48 {
		t.Fatalf("a cut takes %d bytes, want 48", got)
	}
}

// TestNextEpochRecomputes: on an unchanged graph, NextEpoch makes the next
// sweep merge every AND again, and the recomputed sets are bit-identical
// to a cold manager's, stamps included.
func TestNextEpochRecomputes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomAIG(rng, 16, 2000)

	warm := NewManager(a, Params{})
	pool := NewPool()
	a.ForEachAnd(func(id int32) { warm.EnsureP(id, nil, pool) })
	warm.NextEpoch()
	pool.merges = 0
	var ids []int32
	a.ForEachAnd(func(id int32) {
		ids = append(ids, id)
		warm.EnsureP(id, nil, pool)
	})
	if pool.merges != len(ids) {
		t.Fatalf("%d merges after NextEpoch for %d ANDs", pool.merges, len(ids))
	}

	cold := NewManager(a, Params{})
	a.ForEachAnd(func(id int32) { cold.Ensure(id, nil) })
	sameSets(t, "after NextEpoch", warm, cold, ids)
}
