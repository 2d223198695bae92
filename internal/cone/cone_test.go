package cone

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

func TestCutRespectsBudget(t *testing.T) {
	a := bench.Multiplier(8)
	w := New(a)
	a.ForEachAnd(func(id int32) {
		if leaves, ok := w.Cut(id, 6); ok && len(leaves) > 6 {
			t.Fatalf("cut of %d leaves under budget 6", len(leaves))
		}
	})
}

func TestSimulateMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := bench.MemCtrl(1500, 5)
	w := New(a)
	pi := make([]uint64, a.NumPIs())
	for i := range pi {
		pi[i] = rng.Uint64()
	}
	vals := nodeValues(a, pi)
	checked := 0
	a.ForEachAnd(func(id int32) {
		leaves, ok := w.Cut(id, 3+int(id)%10)
		if !ok || len(leaves) < 3 {
			return
		}
		if _, ok := w.Simulate(id, leaves, math.MaxInt); !ok {
			t.Fatalf("node %d: cone over its own cut does not simulate", id)
		}
		checked++
		// Every table of the window, not only the root's.
		ids := append(slices.Clone(leaves), w.Cone()...)
		for i, node := range ids {
			f := w.Table(i)
			if g, ok := w.TableOf(node); !ok || !g.Equal(f) {
				t.Fatalf("node %d: TableOf(%d) is not table %d", id, node, i)
			}
			for bit := uint(0); bit < 64; bit++ {
				row := uint(0)
				for li, leaf := range leaves {
					row |= uint(vals[leaf]>>bit&1) << uint(li)
				}
				if f.Eval(row) != (vals[node]>>bit&1 == 1) {
					t.Fatalf("node %d: table of %d disagrees with simulation", id, node)
				}
			}
		}
		if w.Cone()[len(w.Cone())-1] != id {
			t.Fatalf("node %d: root is not last in its cone", id)
		}
	})
	if checked == 0 {
		t.Fatal("no cones checked")
	}
}

// nodeValues mirrors the simulator for direct per-node inspection.
func nodeValues(m *aig.AIG, pi []uint64) []uint64 {
	vals := make([]uint64, m.Capacity())
	for i, p := range m.PIs() {
		vals[p] = pi[i]
	}
	for _, id := range m.TopoOrder(nil) {
		n := m.N(id)
		if !n.IsAnd() {
			continue
		}
		v0 := vals[n.Fanin0().Node()]
		if n.Fanin0().Compl() {
			v0 = ^v0
		}
		v1 := vals[n.Fanin1().Node()]
		if n.Fanin1().Compl() {
			v1 = ^v1
		}
		vals[id] = v0 & v1
	}
	return vals
}

func TestSimulateLimitAndEscape(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	xy := a.And(x, y)
	root := a.And(xy, z)
	a.AddPO(root)
	w := New(a)
	if _, ok := w.Simulate(root.Node(), []int32{x.Node(), y.Node()}, math.MaxInt); ok {
		t.Fatal("cone escaping to a PI simulated")
	}
	if _, ok := w.Simulate(root.Node(), []int32{x.Node(), y.Node(), z.Node()}, 0); !ok {
		t.Fatal("limit 0 refused a node entered with none finished")
	}
	deep := a.And(root, a.And(x, z))
	if _, ok := w.Simulate(deep.Node(), []int32{x.Node(), y.Node(), z.Node()}, 1); ok {
		t.Fatal("limit 1 admitted a node entered after two were finished")
	}
}

func TestMFFCMatchesDerefCone(t *testing.T) {
	a := bench.MtM("m", 3000, 7)
	w := New(a)
	a.ForEachAnd(func(id int32) {
		leaves, ok := w.Cut(id, 8)
		if !ok {
			return
		}
		leaves = slices.Clone(leaves)
		for _, bound := range [][]int32{leaves, nil} {
			isLeaf := func(n int32) bool { return slices.Contains(bound, n) }
			want := a.DerefCone(id, isLeaf)
			a.RefCone(id, isLeaf)
			if got := w.MFFC(id, bound); got != want {
				t.Fatalf("node %d: MFFC %d, DerefCone %d", id, got, want)
			}
		}
		// Membership adds up to the count.
		if _, ok := w.Simulate(id, leaves, math.MaxInt); !ok {
			t.Fatalf("node %d: cone does not simulate", id)
		}
		n := w.MFFC(id, leaves)
		for _, node := range w.Cone() {
			if w.InMFFC(node) {
				n--
			}
		}
		if n != 0 {
			t.Fatalf("node %d: InMFFC disagrees with MFFC by %d", id, n)
		}
	})
}

func TestLargeConeWarmZeroAlloc(t *testing.T) {
	a := bench.Multiplier(8)
	w := New(a)
	var ids []int32
	a.ForEachAnd(func(id int32) { ids = append(ids, id) })
	sweep := func() {
		for _, id := range ids {
			if leaves, ok := w.Cut(id, 10); ok {
				w.Simulate(id, leaves, 200)
				w.MFFC(id, leaves)
			}
		}
	}
	sweep()
	if n := testing.AllocsPerRun(3, sweep); n != 0 {
		t.Fatalf("warm window allocates %v times per sweep", n)
	}
}
