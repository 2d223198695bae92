package rewrite

import (
	"context"
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
)

// randomAIG builds a random redundant network: random AND trees over a
// few PIs with duplicated-but-restructured logic so rewriting has gains
// to find.
func randomAIG(t testing.TB, rng *rand.Rand, pis, gates, pos int) *aig.AIG {
	t.Helper()
	a := aig.New()
	lits := make([]aig.Lit, 0, pis+gates)
	for i := 0; i < pis; i++ {
		lits = append(lits, a.AddPI())
	}
	for len(lits) < pis+gates {
		x := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		var l aig.Lit
		switch rng.Intn(4) {
		case 0:
			l = a.And(x, y)
		case 1:
			l = a.Or(x, y)
		case 2:
			l = a.Xor(x, y)
		default:
			z := lits[rng.Intn(len(lits))]
			l = a.Mux(x, y, z)
		}
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	for i := 0; i < pos; i++ {
		a.AddPO(lits[len(lits)-1-i%len(lits)].XorCompl(rng.Intn(2) == 0))
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatalf("generated AIG invalid: %v", err)
	}
	return a
}

func testLib(t testing.TB) *rewlib.Library {
	t.Helper()
	lib, err := rewlib.Build(npn.Shared(), rewlib.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestSerialPreservesFunction(t *testing.T) {
	lib := testLib(t)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomAIG(t, rng, 8, 400, 8)
		before := aig.RandomSignature(a, rand.New(rand.NewSource(99)), 4)
		initial := a.NumAnds()
		res, err := Run(context.Background(), EngineSerial, a, lib, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("seed %d: post-rewrite invariants: %v", seed, err)
		}
		after := aig.RandomSignature(a, rand.New(rand.NewSource(99)), 4)
		if !aig.EqualSignatures(before, after) {
			t.Fatalf("seed %d: function changed by rewriting", seed)
		}
		t.Logf("seed %d: %d -> %d ands (%d replacements, %d attempts, %d stale)",
			seed, initial, a.NumAnds(), res.Replacements, res.Attempts, res.Stale)
		if a.NumAnds() > initial {
			t.Fatalf("seed %d: area increased", seed)
		}
	}
}
