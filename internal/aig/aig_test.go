package aig

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitAlgebra(t *testing.T) {
	err := quick.Check(func(id int32, c bool) bool {
		if id < 0 {
			id = -id
		}
		id %= 1 << 30
		l := MakeLit(id, c)
		return l.Node() == id && l.Compl() == c &&
			l.Not().Not() == l && l.Not().Compl() != c &&
			l.XorCompl(true) == l.Not() && l.XorCompl(false) == l
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConstLiterals(t *testing.T) {
	if !LitFalse.IsConst() || !LitTrue.IsConst() {
		t.Fatal("constants not recognized")
	}
	if LitFalse.Not() != LitTrue {
		t.Fatal("complement of false is true")
	}
	a := New()
	if a.NodeOf(LitFalse).Kind() != KindConst {
		t.Fatal("node 0 must be the constant")
	}
}

func TestAndSimplifications(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	cases := []struct {
		name string
		got  Lit
		want Lit
	}{
		{"x & 0", a.And(x, LitFalse), LitFalse},
		{"x & 1", a.And(x, LitTrue), x},
		{"1 & y", a.And(LitTrue, y), y},
		{"x & x", a.And(x, x), x},
		{"x & !x", a.And(x, x.Not()), LitFalse},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if a.NumAnds() != 0 {
		t.Fatalf("simplifications created %d nodes", a.NumAnds())
	}
}

func TestStructuralHashing(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	l1 := a.And(x, y)
	l2 := a.And(y, x) // commuted
	if l1 != l2 {
		t.Fatal("commuted AND not shared")
	}
	l3 := a.And(x.Not(), y)
	if l3 == l1 {
		t.Fatal("different phases shared")
	}
	if a.NumAnds() != 2 {
		t.Fatalf("%d nodes, want 2", a.NumAnds())
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestOrXorMux(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	s := a.AddPI()
	or := a.Or(x, y)
	xor := a.Xor(x, y)
	mux := a.Mux(s, x, y)
	a.AddPO(or)
	a.AddPO(xor)
	a.AddPO(mux)
	sim := NewSimulator(a)
	out := sim.Run([]uint64{0b0011, 0b0101, 0b1111 << 60})
	if out[0]&0xF != 0b0111 {
		t.Fatalf("or = %b", out[0]&0xF)
	}
	if out[1]&0xF != 0b0110 {
		t.Fatalf("xor = %b", out[1]&0xF)
	}
	// mux: s=0 in low bits -> y
	if out[2]&0xF != 0b0101 {
		t.Fatalf("mux low = %b", out[2]&0xF)
	}
}

func TestLevels(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	z := a.AddPI()
	l1 := a.And(x, y)
	l2 := a.And(l1, z)
	a.AddPO(l2)
	if a.NodeOf(l1).Level() != 1 || a.NodeOf(l2).Level() != 2 {
		t.Fatal("creation levels wrong")
	}
	if a.Delay() != 2 {
		t.Fatalf("delay %d, want 2", a.Delay())
	}
}

func TestTopoOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomNetwork(t, rng, 8, 300, 6)
	pos := make(map[int32]int)
	order := a.TopoOrder(nil)
	for i, id := range order {
		pos[id] = i
	}
	count := 0
	a.ForEachAnd(func(id int32) {
		count++
		n := a.N(id)
		if pos[n.Fanin0().Node()] >= pos[id] || pos[n.Fanin1().Node()] >= pos[id] {
			t.Fatalf("node %d precedes its fanin", id)
		}
	})
	// The order contains the constant, PIs and all live ANDs exactly once.
	if len(order) != 1+a.NumPIs()+count {
		t.Fatalf("topo order has %d entries, want %d", len(order), 1+a.NumPIs()+count)
	}
}

func TestRefCountsMatchFanouts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomNetwork(t, rng, 6, 200, 5)
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomNetwork(t, rng, 7, 250, 9)
	b := a.Clone()
	if b.NumPIs() != a.NumPIs() || b.NumPOs() != a.NumPOs() {
		t.Fatal("clone interface mismatch")
	}
	if b.NumAnds() > a.NumAnds() {
		t.Fatal("clone grew the network")
	}
	sa := RandomSignature(a, rand.New(rand.NewSource(1)), 4)
	sb := RandomSignature(b, rand.New(rand.NewSource(1)), 4)
	if !slices.Equal(sa, sb) {
		t.Fatal("clone not equivalent")
	}
	if err := b.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomNetwork(t, rng, 5, 100, 4)
	d := Double(a)
	if d.NumPIs() != 2*a.NumPIs() || d.NumPOs() != 2*a.NumPOs() {
		t.Fatalf("double interface: %d/%d PIs, %d/%d POs", d.NumPIs(), a.NumPIs(), d.NumPOs(), a.NumPOs())
	}
	// Structural hashing may share a few nodes, but the doubled network
	// carries roughly twice the logic and identical depth.
	if d.NumAnds() < 2*a.NumAnds()-4 || d.NumAnds() > 2*a.NumAnds() {
		t.Fatalf("double area %d vs base %d", d.NumAnds(), a.NumAnds())
	}
	if d.Delay() != a.Delay() {
		t.Fatalf("double changed delay: %d vs %d", d.Delay(), a.Delay())
	}
	// Each half computes the original functions.
	simA := NewSimulator(a)
	simD := NewSimulator(d)
	pi := make([]uint64, a.NumPIs())
	for i := range pi {
		pi[i] = rng.Uint64()
	}
	outA := simA.Run(pi)
	outD := simD.Run(append(append([]uint64{}, pi...), pi...))
	for k := range outA {
		if outD[k] != outA[k] || outD[k+a.NumPOs()] != outA[k] {
			t.Fatalf("doubled half disagrees on output %d", k)
		}
	}
	if n := DoubleN(a, 2).NumAnds(); n < 3*a.NumAnds() {
		t.Fatalf("DoubleN(2) area %d", n)
	}
}

// randomNetwork builds a random valid network for structural tests.
func randomNetwork(t testing.TB, rng *rand.Rand, pis, gates, pos int) *AIG {
	t.Helper()
	a := New()
	lits := make([]Lit, 0, pis+gates)
	for i := 0; i < pis; i++ {
		lits = append(lits, a.AddPI())
	}
	for a.NumAnds() < gates {
		x := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		var l Lit
		switch rng.Intn(3) {
		case 0:
			l = a.And(x, y)
		case 1:
			l = a.Or(x, y)
		default:
			l = a.Xor(x, y)
		}
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	for i := 0; i < pos; i++ {
		a.AddPO(lits[len(lits)-1-i].XorCompl(rng.Intn(2) == 0))
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatalf("random network invalid: %v", err)
	}
	return a
}

func TestVersionBumpsOnReuse(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	l := a.And(x, y)
	id := l.Node()
	v0 := a.N(id).Version()
	a.AddPO(l)
	// Replace the node by a constant: it dies and its ID is freed.
	a.Replace(id, LitTrue, ReplaceOptions{CascadeMerge: true})
	if a.N(id).Kind() != KindFree {
		t.Fatal("node not freed")
	}
	if a.N(id).Version() == v0 {
		t.Fatal("version must bump on deletion")
	}
	v1 := a.N(id).Version()
	// The next node creation reuses the ID (Fig. 3's hazard) with a fresh
	// version.
	l2 := a.And(x, y.Not())
	if l2.Node() != id {
		t.Fatalf("expected ID reuse of %d, got %d", id, l2.Node())
	}
	if a.N(id).Version() == v1 || a.N(id).Version() == v0 {
		t.Fatal("version must bump on reuse")
	}
}

// TestVersionClockBound: the graph's version clock never wraps. The
// change that would take it past its bound panics, and the message names
// the bound.
func TestVersionClockBound(t *testing.T) {
	a := New()
	x, y := a.AddPI(), a.AddPI()
	a.And(x, y)
	a.clock.Store(uint64(maxVersion) - 1)
	a.And(x, y.Not()) // draws the last value
	defer func() {
		msg, _ := recover().(string)
		if want := fmt.Sprint(maxVersion); !strings.Contains(msg, want) {
			t.Fatalf("a version change past the bound: recovered %q, want a panic naming %s", msg, want)
		}
	}()
	a.And(x.Not(), y)
	t.Fatal("a version change past the clock's bound did not panic")
}

func TestCapacityAndPages(t *testing.T) {
	a := New()
	// Cross several page boundaries.
	x := a.AddPI()
	prev := x
	for i := 0; i < 3*pageSize; i++ {
		pi := a.AddPI()
		prev = a.And(prev, pi)
	}
	if a.Capacity() < 3*pageSize {
		t.Fatalf("capacity %d", a.Capacity())
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	a.AddPO(a.And(x, y))
	if got := a.Stats().String(); got != "pi=2 po=1 and=1 delay=1" {
		t.Fatalf("stats string %q", got)
	}
}
