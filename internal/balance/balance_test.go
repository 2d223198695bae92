package balance

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

func TestBalancesChain(t *testing.T) {
	// A left-skewed 8-input AND chain (depth 7) must balance to depth 3.
	a := aig.New()
	acc := a.AddPI()
	for i := 1; i < 8; i++ {
		acc = a.And(acc, a.AddPI())
	}
	a.AddPO(acc)
	if a.Delay() != 7 {
		t.Fatalf("chain depth %d, want 7", a.Delay())
	}
	b := Run(a)
	if b.Delay() != 3 {
		t.Fatalf("balanced depth %d, want 3", b.Delay())
	}
	if err := b.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	sa := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
	sb := aig.RandomSignature(b, rand.New(rand.NewSource(1)), 4)
	if !slices.Equal(sa, sb) {
		t.Fatal("balancing changed the function")
	}
}

func TestArrivalAwareBalancing(t *testing.T) {
	// One late input: the balanced tree must keep it near the root.
	a := aig.New()
	late := a.AddPI()
	for i := 0; i < 4; i++ {
		late = a.And(late, a.AddPI()) // a depth-4 cone feeding the chain
	}
	lateShared := a.And(late, a.AddPI())
	a.AddPO(lateShared)
	a.AddPO(late) // make `late` shared so it stays a frontier leaf
	acc := lateShared
	for i := 0; i < 4; i++ {
		acc = a.And(acc, a.AddPI())
	}
	a.AddPO(acc)
	b := Run(a)
	// The late signal has level 4; the other 5 chain inputs are PIs; a
	// good schedule reaches 4 + ceil(log2(...)) ~ 7 but never 4+5.
	if b.Delay() > a.Delay() {
		t.Fatalf("balancing increased delay: %d -> %d", a.Delay(), b.Delay())
	}
	sa := aig.RandomSignature(a, rand.New(rand.NewSource(2)), 4)
	sb := aig.RandomSignature(b, rand.New(rand.NewSource(2)), 4)
	if !slices.Equal(sa, sb) {
		t.Fatal("function changed")
	}
}

func TestBalancePreservesFunctionOnSuite(t *testing.T) {
	for _, gen := range []*aig.AIG{
		bench.Multiplier(10),
		bench.Sin(10),
		bench.Voter(31),
		bench.MemCtrl(3000, 4),
	} {
		b := Run(gen)
		if err := b.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("%s: %v", gen.Name, err)
		}
		if b.Delay() > gen.Delay() {
			t.Fatalf("%s: delay %d -> %d", gen.Name, gen.Delay(), b.Delay())
		}
		sa := aig.RandomSignature(gen, rand.New(rand.NewSource(3)), 4)
		sb := aig.RandomSignature(b, rand.New(rand.NewSource(3)), 4)
		if !slices.Equal(sa, sb) {
			t.Fatalf("%s: function changed", gen.Name)
		}
		t.Logf("%s: area %d->%d delay %d->%d", gen.Name,
			gen.NumAnds(), b.NumAnds(), gen.Delay(), b.Delay())
	}
}

func TestComplementEdgesAreFrontiers(t *testing.T) {
	// OR built from complemented ANDs must survive: !( !x & !y ).
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	or := a.Or(x, y)
	top := a.And(or, z)
	a.AddPO(top)
	b := Run(a)
	sa := aig.RandomSignature(a, rand.New(rand.NewSource(4)), 4)
	sb := aig.RandomSignature(b, rand.New(rand.NewSource(4)), 4)
	if !slices.Equal(sa, sb) {
		t.Fatal("complement frontier mishandled")
	}
}
