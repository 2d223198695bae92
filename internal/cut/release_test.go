package cut

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
)

// TestReleaseGivesStorageBack: the cut sets of the nodes a replacement
// deleted, once released, read as unpublished and hold nothing; the pool
// hands their storage to the next request that fits it without carving a
// chunk; and nodes built into the freed IDs enumerate into it the same
// sets a cold manager computes.
func TestReleaseGivesStorageBack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomAIG(rng, 16, 2000)
	m := NewManager(a, Params{})
	pool := NewPool()
	a.ForEachAnd(func(id int32) { m.EnsureP(id, nil, pool) })

	pis := a.PIs()
	a.Replace(a.PO(0).Node(), aig.MakeLit(pis[0], false), aig.ReplaceOptions{})
	var dead []int32
	for id := int32(0); id < a.Capacity(); id++ {
		if a.N(id).IsDead() {
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 {
		t.Fatal("the replacement deleted nothing")
	}

	rel := NewPool()
	st := stride(m.K())
	for i, id := range dead {
		storage := m.entry(id).cuts
		if cap(storage) == 0 {
			t.Fatalf("dead node %d held no set before its release", id)
		}
		m.Release(id, rel)
		if _, ok := m.Cuts(id); ok || m.Holds(id) || m.entry(id).state.Load() != 0 {
			t.Fatalf("released node %d: published=%v, holds storage=%v", id, ok, m.Holds(id))
		}
		if i > 0 {
			continue
		}
		// The first release is the pool's only free storage: every request
		// up to its capacity gets it back, and no chunk is carved.
		for n := 1; n <= cap(storage)/st; n++ {
			s := poolGet(rel, n, st)
			if len(s) != n*st || &s[0] != &storage[:1][0] || len(rel.chunk) != 0 {
				t.Fatalf("poolGet(%d) after releasing %d cuts: not the released storage", n, cap(storage)/st)
			}
			poolPut(rel, s, st)
		}
	}

	// New logic reuses the freed IDs and enumerates into the freed storage.
	l := aig.MakeLit(pis[0], false)
	reused := 0
	for i := 1; i < len(pis); i++ {
		l = a.And(l, aig.MakeLit(pis[i], i%2 == 0))
		if slices.Contains(dead, l.Node()) {
			reused++
		}
	}
	a.AddPO(l)
	t.Logf("%d nodes deleted, %d new nodes in their IDs", len(dead), reused)
	if reused == 0 {
		t.Fatal("no new node reused a freed ID")
	}
	var ids []int32
	a.ForEachAnd(func(id int32) {
		ids = append(ids, id)
		m.EnsureP(id, nil, rel)
	})
	cold := NewManager(a, Params{})
	a.ForEachAnd(func(id int32) { cold.Ensure(id, nil) })
	sameSets(t, "after release and reuse", m, cold, ids)
}

// TestShareMovesFreeStorage: Share deals every free slice of the source,
// each exactly once and onto the list of its capacity, evenly over the
// destinations, and leaves the source with no free storage.
func TestShareMovesFreeStorage(t *testing.T) {
	st := stride(K)
	from := NewPool()
	var given []*uint32
	for c := 1; c <= freeLists+8; c++ {
		for range c%3 + 1 {
			s := make([]uint32, c*st)
			given = append(given, &s[0])
			poolPut(from, s, st)
		}
	}
	to := NewPools(3)
	Share(from, to)

	if from.full != 0 {
		t.Fatalf("source free-list mask %#x after Share, want 0", from.full)
	}
	for b, l := range from.free {
		if len(l) != 0 {
			t.Fatalf("source list %d keeps %d slices", b, len(l))
		}
	}
	seen := map[*uint32]int{}
	for k, p := range to {
		n := 0
		for b, l := range p.free {
			if p.full>>uint(b)&1 == 1 != (len(l) > 0) {
				t.Fatalf("pool %d: mask bit %d disagrees with its list's %d slices", k, b, len(l))
			}
			for _, s := range l {
				if list(cap(s)/st) != b {
					t.Fatalf("pool %d: a slice of %d cuts on list %d", k, cap(s)/st, b)
				}
				seen[&s[:1][0]]++
			}
			n += len(l)
		}
		if want := len(given) / len(to); n < want || n > want+1 {
			t.Fatalf("pool %d got %d of %d slices", k, n, len(given))
		}
	}
	for _, g := range given {
		if seen[g] != 1 {
			t.Fatalf("a slice arrived %d times, want once", seen[g])
		}
	}
}
