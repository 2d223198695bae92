package cut

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"dacpara/internal/aig"
)

// TestWarmEnumerationZeroAlloc pins the zero-allocation contract of warm
// enumeration: once a manager has enumerated a graph and its pool scratch
// has grown to the sweep's working size, a full recompute after NextEpoch
// (the cold enumeration shape running against warm entry storage) may not
// touch the heap. The bench-smoke CI job runs this test as its allocation
// gate. It runs at every width, one stride of stored cut each.
func TestWarmEnumerationZeroAlloc(t *testing.T) {
	for _, shape := range faninShapes {
		t.Run(shape.name, func(t *testing.T) {
			for _, k := range ks {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { warmZeroAlloc(t, shape.build(), k) })
			}
		})
	}
}

func warmZeroAlloc(t *testing.T, a *aig.AIG, k int) {
	m := NewManager(a, Params{K: k})
	pool := NewPool()
	visit := func(id int32) { m.EnsureP(id, nil, pool) }
	a.ForEachAnd(visit)

	// Settle: one warm recompute so entry slices and the pool scratch
	// reach steady-state capacity before measuring.
	m.NextEpoch()
	a.ForEachAnd(visit)

	if avg := testing.AllocsPerRun(10, func() {
		m.NextEpoch()
		a.ForEachAnd(visit)
	}); avg != 0 {
		t.Errorf("warm recompute after NextEpoch: %v allocs/run, want 0", avg)
	}
}

// TestEntrySize pins a cut table entry, one per node of every pass, at a
// state word and a slice header on 64-bit platforms.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); unsafe.Sizeof(uintptr(0)) == 8 && got != 32 {
		t.Fatalf("a cut entry takes %d bytes, want 32", got)
	}
}

// TestCutSize pins the working form of a cut at 48 bytes: six leaves, one
// stamp, the size, the function and the signature. Merges, evaluators and
// candidates handle cuts in this form; stored sets are packed
// (TestStoredCutBytes).
func TestCutSize(t *testing.T) {
	if got := unsafe.Sizeof(Cut{}); got != 48 {
		t.Fatalf("a cut takes %d bytes, want 48", got)
	}
}

// TestStoredCutBytes pins the stored form: 6, 7 and 9 words a cut at
// k = 4, 5 and 6, and a manager's entries hold exactly that many words
// for each cut of their sets.
func TestStoredCutBytes(t *testing.T) {
	for i, k := range ks {
		want := []int{6, 7, 9}[i]
		if got := stride(k); got != want {
			t.Errorf("k = %d: a stored cut takes %d words (%d bytes), want %d", k, got, 4*got, want)
		}
		a := randomAIG(rand.New(rand.NewSource(3)), 10, 300)
		m := NewManager(a, Params{K: k})
		a.ForEachAnd(func(id int32) {
			cuts := ensured(m, id)
			if got := len(m.entry(id).cuts); got != len(cuts)*want {
				t.Fatalf("k = %d: node %d stores %d cuts in %d words", k, id, len(cuts), got)
			}
		})
	}
}

// TestNextEpochRecomputes: on an unchanged graph, NextEpoch makes the next
// sweep merge every AND again, and the recomputed sets are bit-identical
// to a cold manager's, stamps included, at every width.
func TestNextEpochRecomputes(t *testing.T) {
	for _, k := range ks {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { nextEpochRecomputes(t, Params{K: k}) })
	}
}

func nextEpochRecomputes(t *testing.T, p Params) {
	rng := rand.New(rand.NewSource(7))
	a := randomAIG(rng, 16, 2000)

	warm := NewManager(a, p)
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

	cold := NewManager(a, p)
	a.ForEachAnd(func(id int32) { cold.Ensure(id, nil) })
	sameSets(t, "after NextEpoch", warm, cold, ids)
}
