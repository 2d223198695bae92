package aig

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dacpara/internal/tt"
)

// TestModelBasedConstruction drives the AIG builder and a truth-table
// reference model with the same random operation sequence over four
// inputs; the final simulation must match the model exactly. This is the
// property-based cross-check of the whole construction layer (And/Or/
// Xor/Mux, simplification rules, structural hashing).
func TestModelBasedConstruction(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(64))}
	err := quick.Check(func(ops []uint32) bool {
		a := New()
		var pis [4]Lit
		for i := range pis {
			pis[i] = a.AddPI()
		}
		lits := []Lit{pis[0], pis[1], pis[2], pis[3]}
		model := []tt.Func64{tt.Var64(0), tt.Var64(1), tt.Var64(2), tt.Var64(3)}
		for _, op := range ops {
			pick := func(sel uint32) (Lit, tt.Func64) {
				i := int(sel) % len(lits)
				l, f := lits[i], model[i]
				if sel>>8&1 == 1 {
					l, f = l.Not(), f.Not()
				}
				return l, f
			}
			x, fx := pick(op)
			y, fy := pick(op >> 9)
			z, fz := pick(op >> 18)
			var l Lit
			var f tt.Func64
			switch op >> 28 % 4 {
			case 0:
				l, f = a.And(x, y), fx.And(fy)
			case 1:
				l, f = a.Or(x, y), fx.Or(fy)
			case 2:
				l, f = a.Xor(x, y), fx.Xor(fy)
			default:
				l = a.Mux(x, y, z)
				f = fx.And(fy).Or(fx.Not().And(fz))
			}
			lits = append(lits, l)
			model = append(model, f)
		}
		// Register every literal as a PO and compare against the model
		// under direct truth-table evaluation.
		for _, l := range lits {
			a.AddPO(l)
		}
		if err := a.Check(CheckOptions{}); err != nil {
			t.Logf("invariant violation: %v", err)
			return false
		}
		sim := NewSimulator(a)
		// Drive each PI with its variable's truth table.
		pattern := make([]uint64, 4)
		for v := range pattern {
			pattern[v] = uint64(tt.Var64(v))
		}
		out := sim.Run(pattern)
		for i, f := range model {
			if out[i] != uint64(f) {
				t.Logf("literal %d: sim %016x, model %v", i, out[i], f)
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplaceModelBased replaces random nodes with freshly built
// equivalent cones and re-verifies against the model after each step.
func TestReplaceModelBased(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 30; iter++ {
		a := randomNetwork(t, rng, 5, 60, 5)
		ref := RandomSignature(a, rand.New(rand.NewSource(9)), 2)
		for step := 0; step < 10; step++ {
			var ands []int32
			a.ForEachAnd(func(id int32) { ands = append(ands, id) })
			if len(ands) == 0 {
				break
			}
			id := ands[rng.Intn(len(ands))]
			n := a.N(id)
			// Rebuild AND(f0,f1) as !(!f0 | !f1) through an OR of
			// complements (same function, maybe-different structure).
			f0, f1 := n.Fanin0(), n.Fanin1()
			equiv := a.Or(f0.Not(), f1.Not()).Not()
			if equiv.Node() == id {
				continue
			}
			a.Replace(id, equiv, ReplaceOptions{CascadeMerge: true})
			if err := a.Check(CheckOptions{}); err != nil {
				t.Fatalf("iter %d step %d: %v", iter, step, err)
			}
		}
		got := RandomSignature(a, rand.New(rand.NewSource(9)), 2)
		if !slices.Equal(ref, got) {
			t.Fatalf("iter %d: function drifted", iter)
		}
	}
}
