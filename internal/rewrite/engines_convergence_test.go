package rewrite_test

import (
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/rewrite"
)

// TestPassesConverge: rewriting is locally optimal, so repeated passes
// must be monotonically non-increasing in area and reach a fixpoint.
func TestPassesConverge(t *testing.T) {
	l := lib(t)
	a := bench.Sin(12)
	prev := a.NumAnds()
	fixpoint := false
	for pass := 0; pass < 6; pass++ {
		res := must(t)(run(rewrite.EngineDACPara)(a, l, rewrite.Config{Workers: 4}))
		if a.NumAnds() > prev {
			t.Fatalf("pass %d increased area %d -> %d", pass, prev, a.NumAnds())
		}
		if res.Replacements == 0 {
			fixpoint = true
			break
		}
		prev = a.NumAnds()
	}
	if !fixpoint {
		t.Log("no fixpoint within 6 passes (acceptable for large nets, unusual here)")
	}
	if err := a.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
}

// TestP1P2OnMtM mirrors Table 3's configurations on a scaled-down MtM
// circuit: both parameterizations must hold quality and stay equivalent.
func TestP1P2OnMtM(t *testing.T) {
	l := lib(t)
	base := bench.MtM("m", 10_000, 16)
	for _, cfg := range []struct {
		name string
		c    rewrite.Config
	}{
		{"P1", rewrite.P1()},
		{"P2", rewrite.P2()},
	} {
		a := base.Clone()
		golden := a.Clone()
		c := cfg.c
		c.Workers = 4
		res := must(t)(run(rewrite.EngineDACPara)(a, l, c))
		if res.AreaReduction() <= 0 {
			t.Fatalf("%s: no area reduction", cfg.name)
		}
		sa := aig.RandomSignature(golden, rand.New(rand.NewSource(3)), 4)
		sb := aig.RandomSignature(a, rand.New(rand.NewSource(3)), 4)
		if !aig.EqualSignatures(sa, sb) {
			t.Fatalf("%s: function changed", cfg.name)
		}
		t.Logf("%s: %d -> %d (replacements %d, stale %d)",
			cfg.name, res.InitialAnds, res.FinalAnds, res.Replacements, res.Stale)
	}
}

// TestFlatAblationIsWorse: without level partitioning the same three-
// stage engine loses quality to staleness — the value of nodeDividing.
func TestFlatAblationIsWorse(t *testing.T) {
	l := lib(t)
	base := bench.Sin(14)
	leveled := base.Clone()
	flat := base.Clone()
	rl := must(t)(run(rewrite.EngineDACPara)(leveled, l, rewrite.Config{Workers: 8}))
	rf := must(t)(run(rewrite.EngineFlat)(flat, l, rewrite.Config{Workers: 8}))
	t.Logf("level-lists: ared=%d stale=%d; flat: ared=%d stale=%d",
		rl.AreaReduction(), rl.Stale, rf.AreaReduction(), rf.Stale)
	if rf.Stale < rl.Stale {
		t.Fatalf("flat worklist produced fewer stale results (%d) than level lists (%d)",
			rf.Stale, rl.Stale)
	}
	// Both remain functionally sound regardless of quality.
	sa := aig.RandomSignature(base, rand.New(rand.NewSource(2)), 4)
	for _, g := range []*aig.AIG{leveled, flat} {
		if !aig.EqualSignatures(sa, aig.RandomSignature(g, rand.New(rand.NewSource(2)), 4)) {
			t.Fatal("ablation variant changed the function")
		}
	}
}

// TestWorkerSweep: every worker count yields a valid, equivalent result.
func TestWorkerSweep(t *testing.T) {
	l := lib(t)
	base := bench.Multiplier(12)
	ref := aig.RandomSignature(base, rand.New(rand.NewSource(8)), 4)
	for _, th := range []int{1, 2, 3, 8, 16} {
		a := base.Clone()
		res := must(t)(run(rewrite.EngineDACPara)(a, l, rewrite.Config{Workers: th}))
		if res.Threads != th {
			t.Fatalf("threads recorded %d, want %d", res.Threads, th)
		}
		if err := a.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
			t.Fatalf("workers=%d: %v", th, err)
		}
		if !aig.EqualSignatures(ref, aig.RandomSignature(a, rand.New(rand.NewSource(8)), 4)) {
			t.Fatalf("workers=%d: function changed", th)
		}
	}
}
