package lutmap

import (
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

func TestMapSimpleTree(t *testing.T) {
	// An 8-input AND tree fits into two 6-LUTs (or fewer levels of
	// wider coverage): area must beat the 7 AIG gates.
	a := aig.New()
	var lits []aig.Lit
	for i := 0; i < 8; i++ {
		lits = append(lits, a.AddPI())
	}
	for len(lits) > 1 {
		var next []aig.Lit
		for i := 0; i+1 < len(lits); i += 2 {
			next = append(next, a.And(lits[i], lits[i+1]))
		}
		lits = next
	}
	a.AddPO(lits[0])
	m, err := Map(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m.Area > 3 {
		t.Fatalf("8-input AND mapped to %d LUTs", m.Area)
	}
	if m.Depth > 2 {
		t.Fatalf("depth %d", m.Depth)
	}
	checkFunctional(t, a, m)
}

func TestMapBenchmarks(t *testing.T) {
	for _, a := range []*aig.AIG{
		bench.Multiplier(8),
		bench.Sin(8),
		bench.Voter(31),
		bench.MemCtrl(2000, 3),
	} {
		m, err := Map(a, 6)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if m.Area <= 0 || m.Area >= a.NumAnds() {
			t.Fatalf("%s: %d LUTs for %d gates", a.Name, m.Area, a.NumAnds())
		}
		checkFunctional(t, a, m)
		t.Logf("%s: %d gates (depth %d) -> %d LUT6 (depth %d)",
			a.Name, a.NumAnds(), a.Delay(), m.Area, m.Depth)
	}
}

func TestMapK4(t *testing.T) {
	a := bench.Adder(12)
	m4, err := Map(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	m6, err := Map(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m6.Area > m4.Area {
		t.Fatalf("6-LUT mapping (%d) larger than 4-LUT (%d)", m6.Area, m4.Area)
	}
	checkFunctional(t, a, m4)
}

// TestRewritingImprovesMapping is the downstream-value experiment: the
// LUT count after mapping must not get worse when the AIG was optimized
// first.
func TestRewritingImprovesMapping(t *testing.T) {
	a := bench.Multiplier(10)
	m1, err := Map(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	_ = m1
	// The optimized copy comes from the test below via the facade; here
	// only validate mapping both versions works (full comparison lives in
	// the root package test to avoid an import cycle).
	checkFunctional(t, a, m1)
}

func checkFunctional(t *testing.T, a *aig.AIG, m Mapping) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	sim := aig.NewSimulator(a)
	for round := 0; round < 4; round++ {
		in := make([]bool, a.NumPIs())
		pi := make([]uint64, a.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
			if in[i] {
				pi[i] = 1
			}
		}
		want := sim.Run(pi)
		got, err := Evaluate(a, m, in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if got[k] != (want[k]&1 == 1) {
				t.Fatalf("round %d: PO %d differs between AIG and LUT cover", round, k)
			}
		}
	}
}

func TestValidateCatchesOversizedLUT(t *testing.T) {
	a := bench.Adder(4)
	m, err := Map(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: claim a 10-leaf LUT.
	bad := m
	bad.LUTs = append([]LUT{}, m.LUTs...)
	bad.LUTs[0].Leaves = make([]int32, 10)
	if err := validate(a, bad, 4); err == nil {
		t.Fatal("oversized LUT accepted")
	}
}

// TestMapRejectsWidth: a width outside 2..MaxK is an error, not a panic
// (k = 1: no AND fits a 1-input cut) or a silent clamp (k > MaxK).
func TestMapRejectsWidth(t *testing.T) {
	a := bench.Adder(4)
	for _, k := range []int{-1, 0, 1, MaxK + 1} {
		if _, err := Map(a, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	for _, k := range []int{2, MaxK} {
		m, err := Map(a, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkFunctional(t, a, m)
	}
}
