package cut

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/tt"
)

// The routines below are the merge kernel as it was before it was rebuilt
// — function first, dominance second, a 64-row remap per parent, leaf
// versions re-read from the graph — kept as the oracle the new kernel is
// held to.

// refExpand re-expresses a function over oldLeaves in terms of the
// superset newLeaves (both sorted ascending), one row at a time.
func refExpand(f tt.Func64, oldLeaves, newLeaves []int32) tt.Func64 {
	if len(oldLeaves) == len(newLeaves) {
		return f
	}
	var pos [MaxK]int
	j := 0
	for i, l := range oldLeaves {
		for newLeaves[j] != l {
			j++
		}
		pos[i] = j
	}
	var out tt.Func64
	for row := uint(0); row < 64; row++ {
		src := uint(0)
		for i := range oldLeaves {
			src |= (row >> uint(pos[i]) & 1) << uint(i)
		}
		out |= tt.Func64(uint64(f)>>src&1) << row
	}
	return out
}

func refMergeCuts(c0, c1 *Cut, n0, n1 bool, k int) (Cut, bool) {
	if int(c0.Size)+int(c1.Size) > k && bits.OnesCount64(c0.sig|c1.sig) > k {
		return Cut{}, false
	}
	var leaves [2 * MaxK]int32
	i, j, n := uint8(0), uint8(0), 0
	for i < c0.Size && j < c1.Size {
		a, b := c0.Leaves[i], c1.Leaves[j]
		switch {
		case a == b:
			leaves[n] = a
			i, j = i+1, j+1
		case a < b:
			leaves[n] = a
			i++
		default:
			leaves[n] = b
			j++
		}
		n++
	}
	for ; i < c0.Size; i++ {
		leaves[n] = c0.Leaves[i]
		n++
	}
	for ; j < c1.Size; j++ {
		leaves[n] = c1.Leaves[j]
		n++
	}
	if n > k {
		return Cut{}, false
	}
	t0 := refExpand(c0.TT, c0.LeafSlice(), leaves[:n])
	t1 := refExpand(c1.TT, c1.LeafSlice(), leaves[:n])
	if n0 {
		t0 = t0.Not()
	}
	if n1 {
		t1 = t1.Not()
	}
	return NewCut(leaves[:n], t0.And(t1)), true
}

func refAddCut(out *[]Cut, c Cut) bool {
	s := *out
	for k := 1; k < len(s); k++ {
		if s[k].dominates(&c) {
			return false
		}
	}
	w := 1
	for k := 1; k < len(s); k++ {
		if !c.dominates(&s[k]) {
			s[w] = s[k]
			w++
		}
	}
	*out = append(s[:w], c)
	return true
}

func refMergeInto(m *Manager, id int32, f0, f1 aig.Lit, s0, s1 []Cut) []Cut {
	k, maxCuts := m.params.k(), m.params.maxCuts()
	dst := []Cut{m.trivial(id)}
	for i := range s0 {
		if !s0[i].Fresh(m.a) {
			continue
		}
		for j := range s1 {
			if !s1[j].Fresh(m.a) {
				continue
			}
			c, ok := refMergeCuts(&s0[i], &s1[j], f0.Compl(), f1.Compl(), k)
			if !ok {
				continue
			}
			for x := uint8(0); x < c.Size; x++ {
				c.Stamp = max(c.Stamp, m.a.N(c.Leaves[x]).Version())
			}
			if refAddCut(&dst, c) && len(dst) > maxCuts {
				drop := 1
				for x := 2; x < len(dst); x++ {
					if dst[x].Size > dst[drop].Size {
						drop = x
					}
				}
				dst = append(dst[:drop], dst[drop+1:]...)
			}
		}
	}
	return dst
}

// mergeCuts and addCut put the kernel's steps back together in the shape
// the property tests drive.
func mergeCuts(c0, c1 *Cut, n0, n1 bool, k int) (Cut, bool) {
	var c Cut
	var p0, p1 [MaxK]uint8
	if !mergeLeaves(&c, c0, c1, k, &p0, &p1) {
		return Cut{}, false
	}
	c.TT = mergeFunc(c0, c1, &p0, &p1, n0, n1)
	return c, true
}

func addCut(out *[]Cut, c Cut) bool {
	if dominated(*out, &c) {
		return false
	}
	*out = insertCut(*out, &c)
	return true
}

// checkExpand compares the swap-based expansion with the row loop for a
// function of the variables below the number of set bits in sel, moved to
// the set positions of sel.
func checkExpand(t testing.TB, f tt.Func64, sel uint8) {
	t.Helper()
	sel &= 1<<MaxK - 1
	var pos []uint8
	var oldLeaves, newLeaves []int32
	for v := uint8(0); v < MaxK; v++ {
		if sel>>v&1 == 1 {
			pos = append(pos, v)
			oldLeaves = append(oldLeaves, int32(10+v))
		}
		if sel>>v != 0 {
			newLeaves = append(newLeaves, int32(10+v))
		}
	}
	for v := len(pos); v < MaxK; v++ {
		f = f.Cofactor0(v)
	}
	if got, want := expand(f, pos), refExpand(f, oldLeaves, newLeaves); got != want {
		t.Fatalf("expand(%v, %v) = %v, want %v", f, pos, got, want)
	}
}

// TestExpandMatchesReference runs every selection of old leaves inside
// every new leaf set of up to six leaves, on corner-case and random
// tables. (Where a new set's top leaves are not old ones the selection is
// the same as in the narrower set: the table ignores them either way.)
func TestExpandMatchesReference(t *testing.T) {
	parity := tt.False64
	tables := []tt.Func64{tt.False64, tt.True64}
	for v := 0; v < MaxK; v++ {
		tables = append(tables, tt.Var64(v), tt.Var64(v).Not())
		parity = parity.Xor(tt.Var64(v))
		tables = append(tables, parity)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		tables = append(tables, tt.Func64(rng.Uint64()))
	}
	for sel := 0; sel < 1<<MaxK; sel++ {
		for _, f := range tables {
			checkExpand(t, f, uint8(sel))
		}
	}
}

func FuzzExpand(f *testing.F) {
	f.Add(uint64(0x8000000000000001), uint8(0b101101))
	f.Add(uint64(0x6996966996696996), uint8(0b111110))
	f.Fuzz(func(t *testing.T, table uint64, sel uint8) {
		checkExpand(t, tt.Func64(table), sel)
	})
}

// TestMergeIntoMatchesReference enumerates whole graphs at every width
// and two budgets and holds every merged set to the old kernel's: same
// cuts in the same order with the same tables, signatures and versions.
func TestMergeIntoMatchesReference(t *testing.T) {
	nets := append(bench.KernelSet(), randomAIG(rand.New(rand.NewSource(5)), 12, 3000))
	params := []Params{{}, {MaxCuts: 8}, {K: 5}, {K: 6}, {K: 6, MaxCuts: 60}}
	if testing.Short() {
		nets, params = nets[len(nets)-2:], []Params{{}, {K: 6}}
	}
	for _, p := range params {
		for _, a := range nets {
			m := NewManager(a, p)
			a.ForEachAnd(func(id int32) {
				got := ensured(m, id)
				n := a.N(id)
				s0, _ := m.Cuts(n.Fanin0().Node())
				s1, _ := m.Cuts(n.Fanin1().Node())
				if want := refMergeInto(m, id, n.Fanin0(), n.Fanin1(), s0, s1); !slices.Equal(got, want) {
					t.Fatalf("%+v node %d:\n got %+v\nwant %+v", p, id, got, want)
				}
			})
		}
	}
}

// TestMergeKeepsParentVersions hands mergeInto fanin sets whose freshness
// was checked before a leaf was rewritten away — the window the fused
// engine leaves open, since leaves of fanin cuts are not under the
// activity's locks. The merged cuts over that leaf carry the old
// incarnation's function, so they must carry the parents' stamp too and
// fail Fresh; stamping them with the version read after the merge would
// pass the old function off as the new node's.
func TestMergeKeepsParentVersions(t *testing.T) {
	a := aig.New()
	x, y, z, w := a.AddPI(), a.AddPI(), a.AddPI(), a.AddPI()
	xy := a.And(x, y)
	g0 := a.And(xy, z)
	g1 := a.And(xy, w)
	root := a.And(g0, g1)
	a.AddPO(root)
	a.AddPO(xy) // keeps the rest alive when xy goes
	m := NewManager(a, Params{})
	s0 := ensured(m, g0.Node())
	s1 := ensured(m, g1.Node())
	oldVer := a.N(xy.Node()).Version()
	var parents uint32
	for _, c := range append(slices.Clone(s0), s1...) {
		parents = max(parents, c.Stamp)
	}

	a.Replace(xy.Node(), x, aig.ReplaceOptions{})
	if a.N(xy.Node()).Version() == oldVer {
		t.Fatal("replacing the leaf did not move its version")
	}

	n := a.N(root.Node())
	merged := m.mergeInto(nil, root.Node(), n.Fanin0(), n.Fanin1(), s0, s1)
	over := 0
	for i := range merged {
		c := &merged[i]
		for _, l := range c.LeafSlice() {
			if l != xy.Node() {
				continue
			}
			over++
			if c.Stamp > parents {
				t.Fatalf("cut %v over the rewritten leaf has stamp %d, above every parent's (%d)", c.LeafSlice(), c.Stamp, parents)
			}
			if c.Fresh(a) {
				t.Fatalf("cut %v over a rewritten leaf passes Fresh", c.LeafSlice())
			}
		}
	}
	if over == 0 {
		t.Fatal("no merged cut uses the rewritten leaf")
	}
}
