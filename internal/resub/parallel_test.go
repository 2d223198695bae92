package resub

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

func TestRunParallelPreservesFunction(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := bench.MtM("m", 8000, 21)
		golden := aig.RandomSignature(a, rand.New(rand.NewSource(6)), 4)
		initial := a.NumAnds()
		res := RunParallel(a, Config{}, workers)
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := aig.RandomSignature(a, rand.New(rand.NewSource(6)), 4)
		if !slices.Equal(golden, got) {
			t.Fatalf("workers=%d: function changed", workers)
		}
		if a.NumAnds() > initial {
			t.Fatalf("workers=%d: area grew", workers)
		}
		t.Logf("workers=%d: %d -> %d (subst %d, stale %d)",
			workers, initial, a.NumAnds(), res.Replacements, res.Stale)
	}
}

func TestRunParallelComparableToSerial(t *testing.T) {
	a1 := bench.Sin(12)
	a2 := a1.Clone()
	rs := Run(a1, Config{})
	rp := RunParallel(a2, Config{}, 4)
	t.Logf("serial %d -> %d; parallel %d -> %d (stale %d)",
		rs.InitialAnds, rs.FinalAnds, rp.InitialAnds, rp.FinalAnds, rp.Stale)
	// The parallel variant trades a few stale candidates for parallelism;
	// its quality must stay within 10% of serial resubstitution.
	if float64(rp.AreaReduction()) < 0.9*float64(rs.AreaReduction()) {
		t.Fatalf("parallel resubstitution lost too much quality: %d vs %d",
			rp.AreaReduction(), rs.AreaReduction())
	}
}
