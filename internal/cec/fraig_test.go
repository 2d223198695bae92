package cec

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
)

func TestFraigMergesFunctionalDuplicates(t *testing.T) {
	// Two structurally different implementations of x^y feeding separate
	// logic: structurally irreducible, functionally identical.
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	xor1 := a.Xor(x, y)                          // or(x&!y, !x&y)
	xor2 := a.And(a.Or(x, y), a.And(x, y).Not()) // (x|y) & !(x&y)
	a.AddPO(a.And(xor1, z))
	a.AddPO(a.And(xor2, z.Not()))
	before := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
	initial := a.NumAnds()
	res := Fraig(a, FraigOptions{})
	if res.Merged == 0 {
		t.Fatal("functional duplicate not merged")
	}
	if a.NumAnds() >= initial {
		t.Fatalf("area %d -> %d", initial, a.NumAnds())
	}
	after := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
	if !slices.Equal(before, after) {
		t.Fatal("fraig changed the function")
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestFraigOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 5; iter++ {
		a := randomAIG(rng, 8, 400, 8)
		before := aig.RandomSignature(a, rand.New(rand.NewSource(2)), 4)
		initial := a.NumAnds()
		res := Fraig(a, FraigOptions{Seed: int64(iter)})
		if a.NumAnds() > initial {
			t.Fatalf("iter %d: fraig grew the network", iter)
		}
		after := aig.RandomSignature(a, rand.New(rand.NewSource(2)), 4)
		if !slices.Equal(before, after) {
			t.Fatalf("iter %d: function changed (merged %d)", iter, res.Merged)
		}
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestFraigComplementedEquivalence(t *testing.T) {
	// A node equal to the COMPLEMENT of another must merge with phase.
	a := aig.New()
	x, y := a.AddPI(), a.AddPI()
	nand := a.And(x, y).Not()
	// or(!x, !y) == nand(x, y), built separately.
	orInv := a.Or(x.Not(), y.Not())
	a.AddPO(a.And(nand, a.AddPI()))
	a.AddPO(a.And(orInv, a.AddPI()))
	res := Fraig(a, FraigOptions{})
	_ = res
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}
